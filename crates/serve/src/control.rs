//! The cluster's control plane: every *decision* about where work runs,
//! separated from the event-loop mechanics that carry it out.
//!
//! [`crate::cluster`] owns the clocks, queues and replicas; this module owns
//! the policy surface that looks at a fleet snapshot and decides:
//!
//! * **admit or shed** — [`AdmissionPolicy`] ([`AdmitAll`],
//!   [`DeadlineFeasible`], [`PriorityShed`]);
//! * **where** — [`RoutingPolicy`] ([`RoundRobin`], [`LeastOutstanding`],
//!   [`PrefixAffinity`], and [`DeadlineAware`], which folds the deadline
//!   cost estimate into placement instead of only the shed decision);
//! * **whether a prefix group should *move*** — [`ControlPlane::place`]
//!   with a [`MigrationConfig`] re-pins a saturated group's home and asks
//!   the driver to copy its COW pages to the new home
//!   ([`Placement::Migrate`]), priced at link bandwidth;
//! * **how many replicas should be on** — [`AutoscalePolicy`]
//!   ([`QueuePressureScaler`]) returns a target fleet size the driver
//!   reaches through the same drain/restart machinery fault plans use.
//!
//! Every policy sees the same [`ReplicaView`] snapshot — clock, queue
//! pressure, lifecycle status, host-tier occupancy and the replica's own
//! speed profile — so admission, routing and autoscaling price decisions
//! against identical evidence. All decisions are pure functions of the
//! snapshot plus deterministic policy state: the control plane introduces
//! no ordering or randomness of its own, which is what keeps a static-fleet
//! run under the extracted control plane bit-identical to the inline PR-8
//! driver.

use crate::engine::SpeedProfile;
use crate::request::{Request, Tier};
use qserve_gpusim::HostLink;

// ---------------------------------------------------------------------------
// Fleet snapshot
// ---------------------------------------------------------------------------

/// What a policy sees of one replica at decision time: its local clock,
/// queue pressure, lifecycle status, host-tier occupancy and the speed
/// profile of its hardware. Clocks may disagree across replicas — a real
/// router's view is exactly this kind of snapshot, not a global barrier.
/// One struct, built in one place ([`crate::cluster`]'s replica snapshot),
/// consumed by routing, admission and autoscaling alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaView {
    /// Replica index (the value [`RoutingPolicy::route`] returns).
    pub index: usize,
    /// The replica's local clock, seconds.
    pub clock_s: f64,
    /// Tokens of work still owed to its queued + running requests.
    pub outstanding_tokens: usize,
    /// Requests waiting (queued or preempted).
    pub waiting: usize,
    /// Requests currently running.
    pub running: usize,
    /// Whether this replica accepts new work. A drained, crashed or
    /// upgrading replica snapshots `false`; routing policies must never
    /// pick a non-accepting replica. Always `true` in fault-free runs.
    pub accepting: bool,
    /// Liveness: `false` while crashed or sitting out upgrade downtime.
    /// `accepting` implies `online`; a standby or draining replica is
    /// online without accepting.
    pub online: bool,
    /// KV pages currently parked in this replica's host-memory tier
    /// (0 when the tier is disabled).
    pub host_used_pages: usize,
    /// Capacity of the host-memory tier in pages (0 when disabled).
    pub host_capacity_pages: usize,
    /// The replica's hardware speed profile, from *its own* engine's cost
    /// model — what makes load balancing and deadline feasibility
    /// hardware-aware on a mixed fleet.
    pub speed: SpeedProfile,
}

impl ReplicaView {
    /// Estimated seconds to drain the replica's outstanding work at its
    /// reference decode throughput — the queueing-delay proxy both
    /// work-normalized routing and admission control price with.
    fn est_queue_s(&self) -> f64 {
        self.outstanding_tokens as f64 / self.speed.decode_tps
    }

    /// Back-of-envelope `(TTFT, end-to-end latency)` estimate for serving
    /// `req` on this replica, priced by the replica's own speed profile.
    ///
    /// Continuous batching admits immediately while the replica has
    /// batch/page headroom (`waiting == 0`), so TTFT is normally just the
    /// prefill pass; a backlog of waiting requests means new arrivals queue
    /// behind the outstanding work first. Decode is processor sharing: the
    /// request needs `output_len` steps at its inter-token gap, but cannot
    /// finish before the replica drains its share of the aggregate backlog
    /// at the reference decode throughput. Deliberately crude — a router
    /// must decide from a snapshot, not a simulation — but priced
    /// per-replica, so a slow replica is honestly worse than a fast one.
    fn estimate(&self, req: &Request) -> (f64, f64) {
        let wait_s = if self.waiting > 0 { self.est_queue_s() } else { 0.0 };
        let ttft =
            wait_s + req.input_len as f64 / self.speed.prefill_tps + self.speed.decode_step_s;
        // Whatever drain the TTFT term already charged as admission wait
        // must not be charged again as decode-time sharing.
        let drain_s =
            (self.outstanding_tokens + req.output_len) as f64 / self.speed.decode_tps - wait_s;
        let decode_s = (req.output_len as f64 * self.speed.decode_step_s).max(drain_s);
        (ttft, ttft + decode_s)
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Decides which replica owns each arriving request. Stateful: a policy may
/// remember its own placement history (round-robin cursor, prefix pins).
pub trait RoutingPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Index of the replica that will own `req`. Must be `< replicas.len()`.
    fn route(&mut self, req: &Request, replicas: &[ReplicaView]) -> usize;

    /// Clears placement history. The cluster calls this before every run —
    /// replicas are rebuilt empty per serve, so stale pins or a mid-cycle
    /// cursor would otherwise leak one workload's placements into the next
    /// and make repeated serves of one cluster diverge from fresh ones.
    /// Default: stateless, nothing to clear.
    fn reset(&mut self) {}
}

/// Cycles through replicas in order, ignoring load — the classic baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn route(&mut self, _req: &Request, replicas: &[ReplicaView]) -> usize {
        // Probe at most one full cycle for an accepting replica. When every
        // replica accepts (the fault-free case) the first probe wins and
        // the cursor advances by exactly one — the historical behavior.
        for _ in 0..replicas.len() {
            let i = self.next % replicas.len();
            self.next += 1;
            if replicas[i].accepting {
                return i;
            }
        }
        panic!("round-robin routed with no accepting replica");
    }
    fn reset(&mut self) {
        self.next = 0;
    }
}

/// Picks the replica with the least outstanding *time* — owed tokens
/// (prefill + decode still due) normalized by the replica's reference
/// decode throughput, ties to the lowest index. On a homogeneous fleet the
/// divisor is constant, so this is exactly the classic least-outstanding-
/// tokens policy; on a mixed fleet it sends a faster replica
/// proportionally more work instead of treating an L40S like an A100.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstanding;

pub(crate) fn least_outstanding(replicas: &[ReplicaView]) -> usize {
    replicas
        .iter()
        .filter(|v| v.accepting)
        .min_by(|a, b| {
            a.est_queue_s()
                .total_cmp(&b.est_queue_s())
                .then(a.index.cmp(&b.index))
        })
        .expect("routed with no accepting replica")
        .index
}

impl RoutingPolicy for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }
    fn route(&mut self, _req: &Request, replicas: &[ReplicaView]) -> usize {
        least_outstanding(replicas)
    }
}

/// Prefix-affinity routing: the first request of a sharing group lands on
/// the least-loaded replica and *pins* the group there; every later group
/// member follows, so the group's prefix pages stay deduplicated on one
/// replica instead of being recomputed (and stored) once per replica.
/// Ungrouped requests fall back to least-outstanding.
#[derive(Debug, Clone, Default)]
pub struct PrefixAffinity {
    pinned: PinTable,
}

/// Prefix-group → home replica. BTreeMap: pin state iterates
/// deterministically in debug dumps and tests.
type PinTable = std::collections::BTreeMap<u64, usize>;

/// The pin rule, once for [`PrefixAffinity`] and [`ControlPlane`]: a pin
/// only holds while its replica accepts work; a group's first member, or a
/// group whose home crashed or drained, (re-)pins to the least-loaded
/// accepting replica (the prefix pages are rebuilt there).
fn follow_pin(pins: &mut PinTable, group: u64, replicas: &[ReplicaView]) -> usize {
    match pins.get(&group) {
        Some(&r) if r < replicas.len() && replicas[r].accepting => r,
        _ => {
            let choice = least_outstanding(replicas);
            pins.insert(group, choice);
            choice
        }
    }
}

impl RoutingPolicy for PrefixAffinity {
    fn name(&self) -> &'static str {
        "prefix-affinity"
    }
    fn route(&mut self, req: &Request, replicas: &[ReplicaView]) -> usize {
        match req.prefix_group {
            Some(g) => follow_pin(&mut self.pinned, g, replicas),
            None => least_outstanding(replicas),
        }
    }
    fn reset(&mut self) {
        self.pinned.clear();
    }
}

/// Worst `achieved ÷ deadline` ratio `req` would see on `v`, over the
/// deadlines it carries — the scalar [`DeadlineAware`] minimizes when no
/// replica can meet the SLO outright (an infinite ratio for a 0-second
/// deadline is fine: `total_cmp` orders it last).
fn deadline_pressure(req: &Request, v: &ReplicaView) -> f64 {
    let (ttft, latency) = v.estimate(req);
    let mut worst = 0.0f64;
    if let Some(d) = req.slo.ttft_deadline_s {
        worst = worst.max(ttft / d);
    }
    if let Some(d) = req.slo.latency_deadline_s {
        worst = worst.max(latency / d);
    }
    worst
}

/// Deadline-aware routing: the per-replica `(TTFT, latency)` estimate that
/// [`DeadlineFeasible`] admission prices shed decisions with, folded into
/// the *placement* decision.
///
/// Work-normalized least-outstanding balances aggregate backlog but is
/// blind to *which* replica can still meet an individual deadline: on a
/// mixed fleet a tight-TTFT request can be "balanced" onto a slow replica
/// that will miss it while a fast replica would have made it. This policy
/// routes each deadline-carrying request to the least-loaded replica whose
/// own cost model says the deadline is feasible; when no replica is
/// feasible it picks the replica that *misses by the least* (minimum worst
/// deadline ratio) — degrading the request the least instead of shedding
/// responsibility to chance. Deadline-free requests fall back to
/// work-normalized least-outstanding, so a mixed workload keeps classic
/// load balancing for its best-effort tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineAware;

impl RoutingPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }
    fn route(&mut self, req: &Request, replicas: &[ReplicaView]) -> usize {
        if !req.slo.has_deadline() {
            return least_outstanding(replicas);
        }
        // Least-loaded replica that can meet the deadline, ties to the
        // lowest index — the same ordering least_outstanding uses, so on a
        // fleet where everyone is feasible the two policies agree.
        let feasible = replicas
            .iter()
            .filter(|v| v.accepting)
            .filter(|v| {
                let (ttft, latency) = v.estimate(req);
                req.slo.met_by(ttft, latency)
            })
            .min_by(|a, b| {
                a.est_queue_s()
                    .total_cmp(&b.est_queue_s())
                    .then(a.index.cmp(&b.index))
            });
        if let Some(v) = feasible {
            return v.index;
        }
        // Nobody makes it: place where the overrun is smallest.
        replicas
            .iter()
            .filter(|v| v.accepting)
            .min_by(|a, b| {
                deadline_pressure(req, a)
                    .total_cmp(&deadline_pressure(req, b))
                    .then(a.index.cmp(&b.index))
            })
            .expect("routed with no accepting replica")
            .index
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Verdict of an [`AdmissionPolicy`] on one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve it: hand the request to the routing policy.
    Admit,
    /// Refuse it: the request is never routed, prefilled or decoded. Its
    /// tokens don't count toward throughput, and it can never meet an SLO —
    /// shedding is only worth it when serving it would cost *other*
    /// requests their SLOs.
    Shed,
}

/// Decides *whether* each arriving request is served at all — the router's
/// load-shedding seam, upstream of [`RoutingPolicy`]. Sees the same
/// [`ReplicaView`] snapshot the router sees (speed profiles included), so a
/// policy can price feasibility against each replica's own cost model.
pub trait AdmissionPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Admit or shed `req`, given a snapshot of every replica.
    fn decide(&mut self, req: &Request, replicas: &[ReplicaView]) -> Admission;

    /// Clears any internal state. The cluster calls this before every run,
    /// mirroring [`RoutingPolicy::reset`].
    fn reset(&mut self) {}
}

/// Admits everything — the PR-4 behavior, and the right policy when demand
/// is known to fit capacity. A homogeneous admit-all cluster run is
/// bit-identical to the pre-admission-control cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }
    fn decide(&mut self, _req: &Request, _replicas: &[ReplicaView]) -> Admission {
        Admission::Admit
    }
}

/// Sheds a request unless at least one replica's cost model says its
/// deadlines are feasible ([`ReplicaView::estimate`]): an infeasible
/// request would burn prefill/decode on tokens that miss their SLO anyway
/// *and* queue-delay everyone behind it — shedding it early protects
/// goodput. Deadline-free requests are always admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineFeasible;

impl AdmissionPolicy for DeadlineFeasible {
    fn name(&self) -> &'static str {
        "deadline"
    }
    fn decide(&mut self, req: &Request, replicas: &[ReplicaView]) -> Admission {
        if !req.slo.has_deadline() {
            return Admission::Admit;
        }
        // Only a replica accepting work can serve the request — a drained
        // or crashed replica's estimate is not a feasible plan.
        let feasible = replicas.iter().filter(|v| v.accepting).any(|v| {
            let (ttft, latency) = v.estimate(req);
            req.slo.met_by(ttft, latency)
        });
        if feasible {
            Admission::Admit
        } else {
            Admission::Shed
        }
    }
}

/// Priority load shedding: once the *least-loaded* replica's estimated
/// queueing delay exceeds the tier's tolerance, the request is shed —
/// [`Tier::Batch`] at `queue_budget_s`, [`Tier::Standard`] at twice that,
/// [`Tier::Interactive`] never. Under overload the cluster keeps serving
/// the traffic that values latency most instead of collapsing uniformly.
#[derive(Debug, Clone, Copy)]
pub struct PriorityShed {
    /// Estimated queueing delay (seconds) at which batch-tier traffic is
    /// shed; standard-tier traffic tolerates twice this.
    pub queue_budget_s: f64,
}

impl Default for PriorityShed {
    fn default() -> Self {
        Self { queue_budget_s: 20.0 }
    }
}

impl AdmissionPolicy for PriorityShed {
    fn name(&self) -> &'static str {
        "priority-shed"
    }
    fn decide(&mut self, req: &Request, replicas: &[ReplicaView]) -> Admission {
        // Pressure is the best accepting replica's backlog; with none
        // accepting it is infinite, shedding everything sheddable.
        let pressure = replicas
            .iter()
            .filter(|v| v.accepting)
            .map(ReplicaView::est_queue_s)
            .fold(f64::INFINITY, f64::min);
        let tolerance = match req.slo.tier {
            Tier::Interactive => f64::INFINITY,
            Tier::Standard => 2.0 * self.queue_budget_s,
            Tier::Batch => self.queue_budget_s,
        };
        if pressure > tolerance {
            Admission::Shed
        } else {
            Admission::Admit
        }
    }
}

// ---------------------------------------------------------------------------
// The control plane: one decision per arrival
// ---------------------------------------------------------------------------

/// When to move a prefix group's home instead of queueing behind it.
///
/// A [`PrefixAffinity`]-style pin keeps a group's COW pages deduplicated on
/// one replica — until that replica saturates, at which point sticking to
/// the pin queues the whole group behind one backlog while other replicas
/// idle. This config tells [`ControlPlane::place`] when a pin should move
/// and how the move is priced.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Estimated queueing delay (seconds) at which a group's home replica
    /// counts as saturated.
    pub saturation_queue_s: f64,
    /// A move must find a destination whose backlog is at most this
    /// fraction of the saturated home's (e.g. `0.5` → destination must be
    /// at least twice as free) — hysteresis against ping-ponging a group
    /// between two equally loaded replicas.
    pub relief_ratio: f64,
    /// `true`: copy the group's COW prefix pages to the new home over
    /// `link` ([`Placement::Migrate`]), so members arriving there alias
    /// warm pages instead of re-prefilling privately. `false`: re-pin only
    /// — the group moves but rebuilds its prefix from scratch (the
    /// re-prefill baseline the `elastic_sweep` compares against).
    pub migrate_pages: bool,
    /// The interconnect the page copy is priced over (device-to-device at
    /// NVLink cost, or through host memory at PCIe cost).
    pub link: HostLink,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self {
            saturation_queue_s: 10.0,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        }
    }
}

/// What the control plane decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Refused at admission (or the whole front door is closed).
    Shed,
    /// Serve on this replica.
    Route(usize),
    /// Serve on `to`, after copying prefix group `group`'s COW pages from
    /// its saturated old home `from` — the driver executes the copy
    /// (charging both page ledgers and the link transfer time) and then
    /// routes the request to `to`.
    Migrate {
        /// The prefix-sharing group whose home moved.
        group: u64,
        /// The saturated replica the group was pinned to.
        from: usize,
        /// The group's new home.
        to: usize,
    },
}

/// Owns every per-arrival decision: admission, routing, and prefix-group
/// migration. The cluster driver feeds it one [`ReplicaView`] snapshot per
/// arrival and executes whatever [`Placement`] comes back — all policy
/// state lives here, all mechanism stays in the driver.
///
/// Without a [`MigrationConfig`] this is exactly the inline
/// admission-then-routing sequence the PR-8 driver ran, decision for
/// decision — the refactor's bit-identity hinge. With one, grouped
/// requests are placed by the control plane's own pin table (ungrouped
/// traffic still goes through the inner routing policy), and a saturated
/// home triggers a [`Placement::Migrate`].
pub struct ControlPlane {
    routing: Box<dyn RoutingPolicy>,
    admission: Box<dyn AdmissionPolicy>,
    migration: Option<MigrationConfig>,
    /// Prefix-group pins when migration is managed here.
    pins: PinTable,
}

impl ControlPlane {
    /// A control plane running `routing` behind `admission`, no migration.
    pub fn new(routing: Box<dyn RoutingPolicy>, admission: Box<dyn AdmissionPolicy>) -> Self {
        Self { routing, admission, migration: None, pins: PinTable::new() }
    }

    /// Replaces the admission policy.
    pub fn set_admission(&mut self, admission: Box<dyn AdmissionPolicy>) {
        self.admission = admission;
    }

    /// Enables (or disables) control-plane-managed prefix migration.
    pub fn set_migration(&mut self, migration: Option<MigrationConfig>) {
        self.migration = migration;
    }

    /// The active migration config, if any.
    pub fn migration(&self) -> Option<&MigrationConfig> {
        self.migration.as_ref()
    }

    /// The routing policy's report name.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }

    /// The admission policy's report name.
    pub fn admission_name(&self) -> &'static str {
        self.admission.name()
    }

    /// Clears routing, admission and pin state — called before every serve
    /// so repeated runs of one cluster replay identically.
    pub fn reset(&mut self) {
        self.routing.reset();
        self.admission.reset();
        self.pins.clear();
    }

    /// The per-arrival decision: shed (front door closed or admission
    /// refused), route, or migrate-then-route.
    pub fn place(&mut self, req: &Request, views: &[ReplicaView]) -> Placement {
        if !views.iter().any(|v| v.accepting) {
            // The whole front door is closed; nothing can even estimate
            // this request. Shed it.
            return Placement::Shed;
        }
        if self.admission.decide(req, views) == Admission::Shed {
            return Placement::Shed;
        }
        if let (Some(cfg), Some(group)) = (self.migration, req.prefix_group) {
            return Self::place_pinned(&mut self.pins, &cfg, group, views);
        }
        Placement::Route(self.routing.route(req, views))
    }

    /// Routes one already-admitted request (a crash victim or a parked
    /// request delivered at a restart): admission is bypassed — the
    /// request was admitted once and the cluster owes it a finish. Returns
    /// `None` when no replica accepts work (the caller parks it until a
    /// restart). Never migrates: a requeued request's old pages are gone,
    /// so there is nothing warm to move — its group simply follows (or
    /// re-establishes) its pin.
    pub fn place_requeued(&mut self, req: &Request, views: &[ReplicaView]) -> Option<usize> {
        if !views.iter().any(|v| v.accepting) {
            return None;
        }
        if let (Some(cfg), Some(group)) = (self.migration, req.prefix_group) {
            return Some(match Self::place_pinned(&mut self.pins, &cfg, group, views) {
                Placement::Route(i) => i,
                Placement::Migrate { to, .. } => to,
                Placement::Shed => unreachable!("pinned placement never sheds"),
            });
        }
        Some(self.routing.route(req, views))
    }

    /// Grouped placement under migration management: follow the pin while
    /// its home keeps up; when the home saturates and a sufficiently
    /// relieved destination exists, move the pin (and, when configured,
    /// the pages).
    fn place_pinned(
        pins: &mut PinTable,
        cfg: &MigrationConfig,
        group: u64,
        views: &[ReplicaView],
    ) -> Placement {
        // A fresh pin is the least-loaded replica itself: saturated or not,
        // nowhere is better, and it routes home below.
        let home = follow_pin(pins, group, views);
        let backlog = views[home].est_queue_s();
        if backlog <= cfg.saturation_queue_s {
            return Placement::Route(home);
        }
        let best = least_outstanding(views);
        if best != home && views[best].est_queue_s() <= cfg.relief_ratio * backlog {
            pins.insert(group, best);
            if cfg.migrate_pages {
                return Placement::Migrate { group, from: home, to: best };
            }
            return Placement::Route(best);
        }
        // Saturated but nowhere better to go: queue at home.
        Placement::Route(home)
    }
}

// ---------------------------------------------------------------------------
// Autoscaling
// ---------------------------------------------------------------------------

/// Decides how many replicas should be accepting work, given the same
/// fleet snapshot routing sees. The cluster driver polls the policy on a
/// fixed interval and closes the gap through the *fault machinery* —
/// scale-down is a `Drain` fault, scale-up is a `Restart` fault — so an
/// autoscaled replica's lifecycle (epochs, parked-work delivery,
/// provisioned-time windows) is exactly a fault-plan replica's.
pub trait AutoscalePolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Desired number of accepting replicas given the fleet snapshot at
    /// `now_s`. The driver clamps the answer to `1..=fleet_size`.
    fn target_online(&mut self, now_s: f64, views: &[ReplicaView]) -> usize;

    /// Clears any internal state (trend windows, cooldowns) before a run.
    fn reset(&mut self) {}
}

/// Scales on mean queue pressure: one replica up when the accepting
/// fleet's mean estimated queueing delay exceeds `scale_up_queue_s`, one
/// down when it falls below `scale_down_queue_s` (the gap between the two
/// thresholds is the hysteresis band), clamped to
/// `[min_replicas, max_replicas]`. One step per decision interval keeps
/// the loop stable against bursty arrivals.
#[derive(Debug, Clone, Copy)]
pub struct QueuePressureScaler {
    /// Never drain below this many accepting replicas.
    pub min_replicas: usize,
    /// Never wake more than this many.
    pub max_replicas: usize,
    /// Mean estimated queueing delay (seconds) above which one replica is
    /// added.
    pub scale_up_queue_s: f64,
    /// Mean estimated queueing delay (seconds) below which one replica is
    /// drained.
    pub scale_down_queue_s: f64,
}

impl AutoscalePolicy for QueuePressureScaler {
    fn name(&self) -> &'static str {
        "queue-pressure"
    }
    fn target_online(&mut self, _now_s: f64, views: &[ReplicaView]) -> usize {
        let accepting = views.iter().filter(|v| v.accepting).count();
        if accepting == 0 {
            return self.min_replicas.max(1);
        }
        let mean_backlog = views
            .iter()
            .filter(|v| v.accepting)
            .map(ReplicaView::est_queue_s)
            .sum::<f64>()
            / accepting as f64;
        let target = if mean_backlog > self.scale_up_queue_s {
            accepting + 1
        } else if mean_backlog < self.scale_down_queue_s {
            accepting.saturating_sub(1)
        } else {
            accepting
        };
        target.clamp(self.min_replicas.max(1), self.max_replicas.max(1))
    }
}

/// How a cluster runs an [`AutoscalePolicy`]: the decision cadence and how
/// much of the fleet starts accepting (the rest are standbys — online,
/// non-accepting, unbilled until woken).
pub struct AutoscaleConfig {
    /// The scaling policy.
    pub policy: Box<dyn AutoscalePolicy>,
    /// Seconds between scaling decisions.
    pub interval_s: f64,
    /// Replicas `0..initial_online` start accepting; the rest start as
    /// standbys.
    pub initial_online: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpeedProfile;
    use crate::request::{RequestId, Slo};

    fn test_speed(decode_tps: f64) -> SpeedProfile {
        SpeedProfile {
            gpu: "test-gpu",
            decode_tps,
            prefill_tps: 10.0 * decode_tps,
            decode_step_s: 32.0 / decode_tps,
        }
    }

    fn test_view(index: usize, outstanding_tokens: usize, decode_tps: f64) -> ReplicaView {
        ReplicaView {
            index,
            clock_s: 0.0,
            outstanding_tokens,
            waiting: 0,
            running: 0,
            accepting: true,
            online: true,
            host_used_pages: 0,
            host_capacity_pages: 0,
            speed: test_speed(decode_tps),
        }
    }

    #[test]
    fn round_robin_cycles_and_affinity_sticks() {
        let views: Vec<ReplicaView> =
            (0..3).map(|i| test_view(i, i * 10, 1000.0)).collect();
        let req = |id: u64, group: Option<u64>| {
            let r = Request::new(RequestId(id), 8, 4, 0.0);
            match group {
                Some(g) => r.with_prefix(g, 4),
                None => r,
            }
        };
        let mut rr = RoundRobin::default();
        assert_eq!(rr.route(&req(0, None), &views), 0);
        assert_eq!(rr.route(&req(1, None), &views), 1);
        assert_eq!(rr.route(&req(2, None), &views), 2);
        assert_eq!(rr.route(&req(3, None), &views), 0);
        let mut lo = LeastOutstanding;
        assert_eq!(lo.route(&req(0, None), &views), 0, "least-loaded wins");
        let mut pa = PrefixAffinity::default();
        let first = pa.route(&req(0, Some(9)), &views);
        assert_eq!(first, 0, "first member lands least-loaded");
        // Later members stick even when another replica empties out.
        let mut views2 = views.clone();
        views2[0].outstanding_tokens = 1000;
        assert_eq!(pa.route(&req(1, Some(9)), &views2), first);
        assert_eq!(pa.route(&req(2, None), &views2), 1, "ungrouped falls back");
    }

    #[test]
    fn least_outstanding_is_work_normalized() {
        // Replica 0 owes fewer tokens but is 4× slower: its *time* backlog
        // (1000/500 = 2s) exceeds replica 1's (3000/2000 = 1.5s), so the
        // work-normalized router must pick the fast replica.
        let views = vec![test_view(0, 1000, 500.0), test_view(1, 3000, 2000.0)];
        let mut lo = LeastOutstanding;
        let req = Request::new(RequestId(0), 8, 4, 0.0);
        assert_eq!(lo.route(&req, &views), 1, "faster replica absorbs more work");
        // Equal speeds: degenerates to the classic least-tokens policy.
        let even = vec![test_view(0, 1000, 1000.0), test_view(1, 900, 1000.0)];
        assert_eq!(lo.route(&req, &even), 1);
    }

    #[test]
    fn admission_policies_decide_from_slos_and_pressure() {
        let req = |slo: Slo| Request::new(RequestId(0), 100, 50, 0.0).with_slo(slo);
        // decode_tps 1000 → est_queue = outstanding/1000 s.
        let idle = vec![test_view(0, 0, 1000.0)];
        let busy = vec![test_view(0, 100_000, 1000.0)]; // 100 s of backlog
        let mut admit_all = AdmitAll;
        let mut deadline = DeadlineFeasible;
        let mut shedder = PriorityShed { queue_budget_s: 20.0 };
        let tight = req(Slo::interactive(1.0, 30.0));
        assert_eq!(admit_all.decide(&tight, &busy), Admission::Admit);
        assert_eq!(deadline.decide(&tight, &idle), Admission::Admit);
        assert_eq!(
            deadline.decide(&tight, &busy),
            Admission::Shed,
            "a 100 s backlog cannot meet a 1 s TTFT deadline"
        );
        // Deadline-free requests sail through deadline admission.
        assert_eq!(deadline.decide(&req(Slo::best_effort()), &busy), Admission::Admit);
        // Priority shedding: batch sheds first, standard at 2×, interactive never.
        assert_eq!(shedder.decide(&req(Slo::best_effort()), &idle), Admission::Admit);
        assert_eq!(shedder.decide(&req(Slo::best_effort()), &busy), Admission::Shed);
        assert_eq!(shedder.decide(&req(Slo::default()), &busy), Admission::Shed);
        let mild = vec![test_view(0, 30_000, 1000.0)]; // 30 s backlog
        assert_eq!(shedder.decide(&req(Slo::best_effort()), &mild), Admission::Shed);
        assert_eq!(shedder.decide(&req(Slo::default()), &mild), Admission::Admit);
        assert_eq!(shedder.decide(&tight, &busy), Admission::Admit, "interactive never shed");
        // Feasibility is judged against the *best* replica, not the worst.
        let mixed = vec![test_view(0, 100_000, 1000.0), test_view(1, 0, 1000.0)];
        assert_eq!(deadline.decide(&tight, &mixed), Admission::Admit);
    }

    #[test]
    fn deadline_aware_routes_to_a_feasible_replica() {
        // Replica 0 is less loaded overall, but its backlog makes a tight
        // TTFT infeasible; replica 1 is busier in raw seconds — wait, keep
        // it simple: 0 has waiting work (TTFT inherits the queue), 1 is
        // idle. Least-outstanding would still pick the emptier queue by
        // est_queue_s; make 0 cheaper on that metric but infeasible.
        let mut slow_but_light = test_view(0, 2_000, 1000.0); // 2 s backlog...
        slow_but_light.waiting = 3; // ...and arrivals queue behind it
        let idle = test_view(1, 2_500, 1000.0); // 2.5 s backlog, no waiters
        let views = vec![slow_but_light, idle];
        let req = Request::new(RequestId(0), 100, 50, 0.0)
            .with_slo(Slo::interactive(1.0, 60.0));
        let mut lo = LeastOutstanding;
        assert_eq!(lo.route(&req, &views), 0, "load balancing alone picks the lighter queue");
        let mut da = DeadlineAware;
        assert_eq!(
            da.route(&req, &views),
            1,
            "deadline-aware must route around the replica whose wait misses the TTFT"
        );
        // No deadline: identical to least-outstanding.
        let free = Request::new(RequestId(1), 100, 50, 0.0).with_slo(Slo::best_effort());
        assert_eq!(da.route(&free, &views), lo.route(&free, &views));
        // Nobody feasible: pick the smallest overrun, not an arbitrary one.
        let hopeless = Request::new(RequestId(2), 100, 50, 0.0)
            .with_slo(Slo::interactive(1e-6, 1e-6));
        let choice = da.route(&hopeless, &views);
        assert!(choice < views.len());
    }

    #[test]
    fn control_plane_pins_then_migrates_a_saturated_group() {
        let cfg = MigrationConfig {
            saturation_queue_s: 5.0,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        };
        let mut cp = ControlPlane::new(Box::new(LeastOutstanding), Box::new(AdmitAll));
        cp.set_migration(Some(cfg));
        let grouped = Request::new(RequestId(0), 64, 16, 0.0).with_prefix(7, 32);
        // First member pins to the least-loaded replica (index 0).
        let views = vec![test_view(0, 0, 1000.0), test_view(1, 1_000, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(0));
        // Home under threshold: members follow the pin even when another
        // replica is now emptier.
        let views = vec![test_view(0, 3_000, 1000.0), test_view(1, 0, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(0));
        // Home saturated (8 s > 5 s) and replica 1 relieved (0 ≤ 0.5×8):
        // the pin moves and the driver is asked to copy the pages.
        let views = vec![test_view(0, 8_000, 1000.0), test_view(1, 0, 1000.0)];
        assert_eq!(
            cp.place(&grouped, &views),
            Placement::Migrate { group: 7, from: 0, to: 1 }
        );
        // The move stuck: the group now routes to its new home.
        let views = vec![test_view(0, 8_000, 1000.0), test_view(1, 100, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(1));
        // Saturated home but no sufficiently relieved destination: stay.
        let views = vec![test_view(0, 7_000, 1000.0), test_view(1, 8_000, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(1));
        // repin-only mode: the pin moves without a page copy.
        cp.reset();
        cp.set_migration(Some(MigrationConfig { migrate_pages: false, ..cfg }));
        let views = vec![test_view(0, 0, 1000.0), test_view(1, 1_000, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(0));
        let views = vec![test_view(0, 8_000, 1000.0), test_view(1, 0, 1000.0)];
        assert_eq!(cp.place(&grouped, &views), Placement::Route(1));
    }

    #[test]
    fn control_plane_without_migration_is_admission_then_routing() {
        let mut cp = ControlPlane::new(Box::new(LeastOutstanding), Box::new(DeadlineFeasible));
        let req = Request::new(RequestId(0), 100, 50, 0.0)
            .with_slo(Slo::interactive(1.0, 30.0));
        let idle = vec![test_view(0, 0, 1000.0)];
        assert_eq!(cp.place(&req, &idle), Placement::Route(0));
        let busy = vec![test_view(0, 100_000, 1000.0)];
        assert_eq!(cp.place(&req, &busy), Placement::Shed, "admission still sheds");
        let mut closed = idle.clone();
        closed[0].accepting = false;
        assert_eq!(cp.place(&req, &closed), Placement::Shed, "closed front door sheds");
        assert_eq!(cp.place_requeued(&req, &closed), None, "requeues park instead");
        assert_eq!(cp.place_requeued(&req, &busy), Some(0), "requeues bypass admission");
    }

    #[test]
    fn queue_pressure_scaler_steps_one_replica_at_a_time() {
        let mut scaler = QueuePressureScaler {
            min_replicas: 1,
            max_replicas: 4,
            scale_up_queue_s: 10.0,
            scale_down_queue_s: 2.0,
        };
        // Two accepting replicas, mean backlog 20 s: scale up by one.
        let hot = vec![test_view(0, 20_000, 1000.0), test_view(1, 20_000, 1000.0)];
        assert_eq!(scaler.target_online(0.0, &hot), 3);
        // Mean backlog 1 s: scale down by one.
        let cool = vec![test_view(0, 1_000, 1000.0), test_view(1, 1_000, 1000.0)];
        assert_eq!(scaler.target_online(0.0, &cool), 1);
        // Inside the hysteresis band: hold.
        let mid = vec![test_view(0, 5_000, 1000.0), test_view(1, 5_000, 1000.0)];
        assert_eq!(scaler.target_online(0.0, &mid), 2);
        // Clamped at both ends.
        let idle = vec![test_view(0, 0, 1000.0)];
        assert_eq!(scaler.target_online(0.0, &idle), 1, "never below min");
        let four_hot: Vec<ReplicaView> =
            (0..4).map(|i| test_view(i, 50_000, 1000.0)).collect();
        assert_eq!(scaler.target_online(0.0, &four_hot), 4, "never above max");
        // Standbys (non-accepting) are invisible to the mean.
        let mut with_standby = hot.clone();
        with_standby.push(ReplicaView { accepting: false, ..test_view(2, 0, 1000.0) });
        assert_eq!(scaler.target_online(0.0, &with_standby), 3);
    }
}

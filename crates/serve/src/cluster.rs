//! Multi-replica cluster serving: the **event-loop driver**. N independent
//! engine replicas — possibly of *different hardware* — advanced by a
//! deterministic event queue, with every *decision* delegated to the
//! control plane ([`crate::control`]) and every *report* assembled by
//! [`crate::report`].
//!
//! The paper's serving results are single-engine; production traffic scales
//! *out* — many replicas, each a (possibly tensor-parallel) engine with its
//! own KV page pool, scheduler core and clock, fed by a router that decides
//! *whether* to serve each arriving request at all, and if so *where*. The
//! split of responsibilities:
//!
//! * a `Replica` is one [`ServingEngine`] (its own [`qserve_gpusim`] spec
//!   and TP group — an A100 and an L40S can share one fleet) driving its
//!   own [`Scheduler`] against its own [`PageBudget`], with a
//!   [`Lifecycle`] tracking its accepting/online state and its
//!   provisioned-time windows (the fleet-cost integral), and the key its
//!   next tick is due at;
//! * the [`ControlPlane`] owns each arrival's fate: admission
//!   ([`AdmitAll`], [`DeadlineFeasible`], [`PriorityShed`]), routing
//!   ([`RoundRobin`], [`LeastOutstanding`], [`PrefixAffinity`],
//!   [`DeadlineAware`]), and — with a [`MigrationConfig`] — whether a
//!   saturated prefix group's COW pages should *move* to an underloaded
//!   replica instead of queueing or re-prefilling (this driver executes
//!   the copy: both page ledgers charged, the transfer priced at link
//!   bandwidth, the destination's scheduler warmed so later group members
//!   alias the moved pages);
//! * an optional [`AutoscaleConfig`] polls an [`AutoscalePolicy`] on a
//!   fixed cadence and closes the gap to its target through the *fault
//!   machinery* — scale-down injects a `Drain` fault, scale-up a `Restart`
//!   fault — so autoscaled lifecycles are exactly fault-plan lifecycles;
//! * [`Cluster::serve_paged`] replays the workload in arrival order through
//!   a private `Driver` — a loop of horizon, advance, pop: replicas tick
//!   between queue events, and each event kind has one handler method —
//!   and hands the end-of-run state to [`crate::report`] for aggregation
//!   into a [`ClusterReport`].
//!
//! [`ServingEngine::serve`] is the same driver over one replica (`serve_one`),
//! and its report comes from the same fold, so a 1-replica cluster's numbers
//! are the single-engine report by construction; a static fleet under the
//! extracted control plane replays the original inline driver decision for
//! decision — the invariants that pin this layer to the golden-snapshot CSVs.

use crate::engine::{CostModel, EngineUnavailable, ServingEngine, SpeedProfile};
use crate::event::{time_key, EventQueue};
use crate::fault::{Fault, FaultKind, FaultPlan, Lifecycle};
use crate::ledger::{PageBudget, Reservation};
use crate::report::{aggregate, IdTally, MigrationTotals, ReplicaSlice};
use crate::request::{Request, RequestId, Tier, WorkloadSpec};
use crate::scheduler::{SchedOptions, Scheduler, SchedulingPolicy};
use qserve_tensor::pool::Pool;

pub use crate::control::{
    Admission, AdmissionPolicy, AdmitAll, AutoscaleConfig, AutoscalePolicy, ControlPlane,
    DeadlineAware, DeadlineFeasible, LeastOutstanding, MigrationConfig, Placement, PrefixAffinity,
    PriorityShed, QueuePressureScaler, ReplicaView, RoundRobin, RoutingPolicy,
};
pub use crate::report::{ClusterReport, ReplicaReport};

// ---------------------------------------------------------------------------
// Replicas
// ---------------------------------------------------------------------------

/// What the cluster's event queue is waiting on — one kind per handler.
/// Replica ticks are not events: a busy replica's next tick is its
/// [`Replica::due`] key, and [`Driver::run`] ticks replicas between pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Lane 0: the next request reaches the front door.
    Arrival,
    /// Lane `u64::MAX`: a scheduled lifecycle event — index into the run's
    /// fault table (plan faults plus dynamically chained restarts).
    Fault(usize),
    /// Lane `u64::MAX`: the autoscaler's periodic decision point. Injects
    /// `Drain`/`Restart` faults at the decision instant, then re-arms one
    /// interval later (while arrivals remain).
    Autoscale,
}

/// The front-door lane sorts before every replica tick at an equal
/// timestamp: the arrival is routed first, then replicas tick by index.
const ARRIVAL_LANE: u64 = 0;

/// Where a replica tick sorts against a queue key at an equal timestamp:
/// after the arrival, before any fault. Replica ticks order among
/// themselves by index, which no queue key needs to see.
const REPLICA_LANE: u64 = 1;

/// The fault lane sorts after every arrival and replica tick at an equal
/// timestamp: a crash at `t` observes the world with that instant's
/// arrival routed and every tick due at `t` taken.
const FAULT_LANE: u64 = u64::MAX;

/// One engine replica: a borrowed engine's cost model (with the replica's
/// own GEMM memo) over the replica's own scheduler core, page ledger and
/// clock, advanced one tick at a time. Lifecycle flags (accepting/online)
/// and the provisioned-time bill live in [`Lifecycle`], shared with the
/// fault layer.
struct Replica<'e> {
    cost: CostModel<'e>,
    speed: SpeedProfile,
    sched: Scheduler,
    budget: PageBudget,
    routed: usize,
    /// Accepting/online state plus the GPU-seconds windows — one state
    /// machine for fault plans and the autoscaler alike.
    life: Lifecycle,
    /// Requests routed here but requeued away by a crash (`routed` is never
    /// decremented); summed over replicas, the report's requeue count.
    requeued_away: usize,
    /// The [`time_key`] of the next tick while the replica has work, `None`
    /// once it drained or crashed (so nothing stale can tick). It is the
    /// key the tick was *armed* at — by a delivery to a drained replica or
    /// by the previous tick — not the current clock: a migration charges a
    /// busy destination's clock without re-arming it, so that replica ticks
    /// once more at the old key, possibly before the next arrival, and only
    /// then re-arms at its advanced clock. Keying on `clock()` instead moves
    /// every later tick of such a replica (`frozen_driver`'s
    /// `migrate_onto_a_busy_replica` pins the rule).
    due: Option<u64>,
}

impl<'e> Replica<'e> {
    /// A fresh replica of `engine` running `sched` against `budget`; a
    /// replica that is not `online` starts as a standby.
    fn new(engine: &'e ServingEngine, sched: Scheduler, budget: PageBudget, online: bool) -> Self {
        Self {
            cost: CostModel::new(engine),
            speed: engine.speed_profile(),
            sched,
            budget,
            routed: 0,
            life: Lifecycle::fresh(online),
            requeued_away: 0,
            due: None,
        }
    }

    fn done(&self) -> bool {
        self.sched.is_done()
    }

    fn clock(&self) -> f64 {
        self.sched.clock()
    }

    /// Control-plane snapshot. O(1): the outstanding-work figure comes
    /// from the scheduler's incremental counter, so probing every replica
    /// per arrival costs O(replicas), not O(residents).
    fn view(&self, index: usize) -> ReplicaView {
        ReplicaView {
            index,
            clock_s: self.clock(),
            outstanding_tokens: self.sched.outstanding_tokens(),
            waiting: self.sched.waiting(),
            running: self.sched.running().len(),
            accepting: self.life.accepting(),
            online: self.life.online(),
            host_used_pages: self.budget.host_used_pages(),
            host_capacity_pages: self.budget.host_capacity_pages(),
            speed: self.speed,
        }
    }

    fn submit(&mut self, req: Request) {
        self.routed += 1;
        self.sched.submit(req);
    }

    /// One scheduling tick — [`Scheduler::tick`] priced by this replica's
    /// cost model — on scheduler- and replica-owned buffers: zero per-tick
    /// allocation once the memo has seen the run's token counts.
    fn tick(&mut self) {
        self.sched.tick(&mut self.budget, &mut self.cost);
    }

    /// Arms the next tick at the current clock.
    fn arm(&mut self) {
        self.due = Some(time_key(self.clock()));
    }

    /// Whether the next tick sorts before `barrier`, a `(time key, lane)`
    /// queue key (`None`: nothing left to sort before).
    fn due_before(&self, barrier: Option<(u64, u64)>) -> bool {
        self.due.is_some_and(|key| barrier.is_none_or(|b| (key, REPLICA_LANE) < b))
    }

    /// Ticks a due replica up to `barrier`: tick after tick, each re-armed
    /// at the advanced clock, while the next one still sorts before the
    /// barrier. A replica that drains stops there and keeps the key of its
    /// last tick, which orders its settling.
    fn advance_to_barrier(&mut self, barrier: Option<(u64, u64)>) {
        loop {
            self.tick();
            if self.done() {
                return;
            }
            self.arm();
            if !self.due_before(barrier) {
                return;
            }
        }
    }

    /// End-of-run ledger audit: migration charged pages on two ledgers, the
    /// autoscaler opened and closed replicas — the budget must still balance
    /// from first principles and hold exactly the scheduler's residents.
    fn audit(&self) {
        self.budget.assert_consistent();
        self.sched.assert_mirrors_ledger(&self.budget);
    }

    /// End-of-run borrow for [`crate::report::aggregate`].
    fn slice(&mut self) -> ReplicaSlice<'_> {
        ReplicaSlice {
            sched: &mut self.sched,
            gpu: self.speed.gpu,
            kv_page_bytes: self.cost.engine.kv_page_bytes(),
            routed: self.routed,
            requeued_away: self.requeued_away,
            restarts: self.life.restarts(),
            peak_pages: self.budget.peak_pages(),
            provisioned_s: self.life.provisioned_s(),
            provisioned_open_since: self.life.provisioned_open_since(),
        }
    }
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

/// N independent engine replicas behind a [`ControlPlane`]. Each replica
/// carries its *own* [`ServingEngine`] — its own GPU spec, TP plan,
/// page-pool sizing and prefill/decode cost model — so a fleet may mix
/// hardware (e.g. A100 and L40S replicas).
pub struct Cluster {
    engines: Vec<ServingEngine>,
    control: ControlPlane,
    autoscale: Option<AutoscaleConfig>,
    /// Private worker pool for intra-run replica parallelism; `None` uses
    /// the process-global pool (sized by `QSERVE_THREADS`). Tests that
    /// compare thread counts in one process set this per cluster.
    pool: Option<Pool>,
}

impl Cluster {
    /// A homogeneous cluster: `replicas` copies of `engine` routed by
    /// `policy`, admitting everything.
    ///
    /// # Panics
    /// Panics if `replicas` is zero.
    pub fn new(engine: ServingEngine, replicas: usize, policy: Box<dyn RoutingPolicy>) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        Self::heterogeneous(vec![engine; replicas], policy)
    }

    /// A heterogeneous fleet: one engine per replica, in fleet order, each
    /// with its own spec-derived cost model and page pool. Admits
    /// everything until [`Cluster::with_admission`] installs a policy.
    ///
    /// # Panics
    /// Panics if `engines` is empty.
    pub fn heterogeneous(engines: Vec<ServingEngine>, policy: Box<dyn RoutingPolicy>) -> Self {
        assert!(!engines.is_empty(), "a cluster needs at least one replica");
        Self {
            engines,
            control: ControlPlane::new(policy, Box::new(AdmitAll)),
            autoscale: None,
            pool: None,
        }
    }

    /// Overrides the worker pool driving intra-run replica parallelism
    /// (builder-style). The default is the process-global pool, sized by
    /// `QSERVE_THREADS` or the machine's available parallelism;
    /// `threads == 1` forces fully sequential event handling. Every thread
    /// count produces the same bit-identical report — this knob trades
    /// wall-clock only.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Some(Pool::new(threads));
        self
    }

    /// Installs an admission policy (builder-style); [`AdmitAll`] before.
    pub fn with_admission(mut self, admission: Box<dyn AdmissionPolicy>) -> Self {
        self.control.set_admission(admission);
        self
    }

    /// Enables control-plane prefix migration (builder-style): a saturated
    /// group's pin moves to an underloaded replica and — when
    /// `migration.migrate_pages` — its COW prefix pages are copied there
    /// over `migration.link`.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.control.set_migration(Some(migration));
        self
    }

    /// Installs an elastic autoscaler (builder-style). Replicas
    /// `autoscale.initial_online..` start as standbys — online but not
    /// accepting, billing no GPU-seconds until the scaler wakes them.
    ///
    /// # Panics
    /// Panics if the initial online count is zero or exceeds the fleet, or
    /// if the decision interval is not positive.
    pub fn with_autoscaler(mut self, autoscale: AutoscaleConfig) -> Self {
        assert!(
            autoscale.initial_online >= 1 && autoscale.initial_online <= self.engines.len(),
            "initial online count {} outside 1..={}",
            autoscale.initial_online,
            self.engines.len()
        );
        assert!(autoscale.interval_s > 0.0, "autoscale interval must be positive");
        self.autoscale = Some(autoscale);
        self
    }

    /// Serves `spec` across the cluster with paged admission on every
    /// replica — the **event-driven core**. One deterministic
    /// [`EventQueue`] (keyed `(time.to_bits(), lane, seq)`; lane 0 is the
    /// front-door arrival stream) holds the next arrival, and each busy
    /// replica holds the key its next tick is due at. The run alternates
    /// two steps:
    ///
    /// * **replica ticks** — every replica due before the queue head runs
    ///   scheduling ticks (scratch-reusing, allocation-free) up to it,
    ///   re-armed at its advanced clock after each, until it drains;
    /// * **next-arrival** — the control plane sees an O(1)-per-replica
    ///   snapshot as of the arrival instant and decides shed / route /
    ///   migrate-then-route; the owning replica is armed at its clock (if
    ///   it was drained).
    ///
    /// Replica ticks sort against queue keys exactly as the retired step
    /// driver's min-clock scans did (arrivals win time-ties, then replicas
    /// by index), and between queue events they touch only replica-local
    /// state, so every replica performs the identical tick sequence —
    /// bit-identical reports — at O(replicas) per event instead of per
    /// step, and O(1) per load probe instead of O(residents).
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when a worst-case request exceeds
    /// some replica's page pool.
    ///
    /// # Panics
    /// Panics if the routing policy returns an out-of-range replica index.
    pub fn serve_paged(
        &mut self,
        spec: &WorkloadSpec,
        mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
    ) -> Result<ClusterReport, EngineUnavailable> {
        self.serve_paged_faulty(spec, mk_policy, reservation, opts, &FaultPlan::none())
    }

    /// [`Cluster::serve_paged`] with a deterministic lifecycle [`FaultPlan`]
    /// injected as a second event lane (`u64::MAX`, so at equal timestamps a
    /// fault fires *after* the arrival and every replica tick at that
    /// instant — replicas observe the world as of the fault time first):
    ///
    /// * **crash** — the replica's KV pool dies: every resident request
    ///   loses its pages (and its prefill progress — accounted as
    ///   `lost_prefill_tokens`) and is requeued through the control plane
    ///   to the surviving replicas with `ready_s` re-stamped to the crash
    ///   instant. The replica goes offline and non-accepting, and is no
    ///   longer due to tick.
    /// * **drain** — admission-only: the replica stops accepting, residents
    ///   finish normally (what an operator does before maintenance).
    /// * **restart** — a drained replica re-opens; a crashed or upgrading
    ///   replica comes back online with a clean pool, its clock advanced to
    ///   the restart instant. Requests parked while *no* replica accepted
    ///   are delivered here.
    /// * **upgrade** — drain, wait for residents, sit out `downtime_s`,
    ///   restart; when `rolling`, the restart chains the same upgrade to
    ///   the next replica, so exactly one replica is down at a time.
    ///
    /// The autoscaler (when installed) shares this machinery wholesale: its
    /// periodic decision event appends `Drain`/`Restart` faults to the same
    /// table and the same handlers execute them — scale-down *is* a drain,
    /// scale-up *is* a restart, so elastic lifecycles cannot diverge from
    /// fault-injection semantics.
    ///
    /// Arrivals while no replica accepts are shed (tier-accounted like any
    /// admission shed); requeued work is parked instead — it was admitted
    /// once, so it waits for the next restart rather than being dropped,
    /// and only a run that *ends* with no restart sheds it.
    ///
    /// With [`FaultPlan::none`] the fault lane is empty and every replica
    /// accepts throughout — the run is bit-identical to the fault-free
    /// driver by construction.
    ///
    /// # Errors
    /// [`EngineUnavailable::OutOfMemory`] when a worst-case request exceeds
    /// some replica's page pool.
    ///
    /// # Panics
    /// Panics if the routing policy returns an out-of-range replica index,
    /// if the plan targets a replica the fleet doesn't have, or if a crash
    /// or the end-of-run audit leaves a page ledger inconsistent.
    pub fn serve_paged_faulty(
        &mut self,
        spec: &WorkloadSpec,
        mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
        reservation: Reservation,
        opts: SchedOptions,
        plan: &FaultPlan,
    ) -> Result<ClusterReport, EngineUnavailable> {
        // Fresh replicas get a fresh control plane: no pins, cursors or
        // pressure state from a previous serve may leak in.
        self.control.reset();
        if let Some(auto) = &mut self.autoscale {
            auto.policy.reset();
        }
        // The trace is streamed, never held: validated here, drawn one
        // request per `Arrival` event.
        let arrivals = spec.arrivals();
        let Self { engines, control, autoscale, pool } = self;
        let initial_online = autoscale.as_ref().map_or(engines.len(), |a| a.initial_online);
        let reps = build_replicas(engines, initial_online, spec, &mk_policy, reservation, opts)?;
        let pool = pool.as_ref().unwrap_or_else(|| qserve_tensor::pool::global());
        let mut driver = Driver::new(control, autoscale.as_mut(), pool, reps, arrivals, plan);
        driver.run();
        Ok(driver.finish())
    }
}

/// Builds one fresh replica per engine, each sized by *its own*
/// [`ServingEngine::paged_budget`] — shared by the event-driven driver and
/// the step-driven reference so both serve the same fleet. Replicas from
/// `initial_online` on (the autoscaler's initial online count) start as
/// standbys.
fn build_replicas<'e>(
    engines: &'e [ServingEngine],
    initial_online: usize,
    spec: &WorkloadSpec,
    mk_policy: &impl Fn() -> Box<dyn SchedulingPolicy>,
    reservation: Reservation,
    opts: SchedOptions,
) -> Result<Vec<Replica<'e>>, EngineUnavailable> {
    engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let (budget, batch_limit) = engine.paged_budget(spec, reservation, opts.preemption)?;
            let sched = Scheduler::open(batch_limit, mk_policy(), opts);
            Ok(Replica::new(engine, sched, budget, i < initial_online))
        })
        .collect()
}

/// [`ServingEngine::serve`]'s run: the driver over one replica of `engine`,
/// `sched` against `budget`, behind a round-robin, admit-all control plane
/// with no fault plan, on a one-thread pool (which spawns no thread).
/// Nothing is left to decide, so the run is that replica's ticks between
/// arrivals. Returns the replica's scheduler and ledger, audited with the
/// workload's partition.
pub(crate) fn serve_one(
    engine: &ServingEngine,
    spec: &WorkloadSpec,
    sched: Scheduler,
    budget: PageBudget,
) -> (Scheduler, PageBudget) {
    let mut control = ControlPlane::new(Box::new(RoundRobin::default()), Box::new(AdmitAll));
    let pool = Pool::new(1);
    let reps = vec![Replica::new(engine, sched, budget, true)];
    let arrivals = spec.arrivals();
    let mut driver = Driver::new(&mut control, None, &pool, reps, arrivals, &FaultPlan::none());
    driver.run();
    driver.close();
    let rep = driver.reps.pop().expect("the driver keeps its replica");
    (rep.sched, rep.budget)
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// One run of the event loop: the state `serve_paged_faulty` (or
/// [`serve_one`]) builds, ticks replicas and pops events against, and folds
/// into a report. Each event kind has one handler method; everything a
/// handler touches is a field here.
struct Driver<'a, A: Iterator<Item = Request>> {
    control: &'a mut ControlPlane,
    autoscale: Option<&'a mut AutoscaleConfig>,
    /// Advances two or more due replicas concurrently when it has threads.
    pool: &'a Pool,
    reps: Vec<Replica<'a>>,
    queue: EventQueue<Event>,
    /// The runtime fault table: plan faults up front, chained restarts,
    /// rolling-upgrade hops and autoscaler decisions appended as the run
    /// discovers them.
    faults: Vec<Fault>,
    /// The trace in front-door order, drawn as it is consumed;
    /// `next_arrival` is the one request whose `Arrival` event is queued.
    arrivals: A,
    next_arrival: Option<Request>,
    /// The ids that came through the front door, which the closing audit
    /// holds finished ∪ shed to.
    arrived: IdTally,
    /// What a report says of a shed request: its id and its tier.
    shed: Vec<(RequestId, Tier)>,
    /// Admitted-then-crashed requests with nowhere to go (no replica
    /// accepting): they wait for a restart instead of being shed.
    parked: Vec<Request>,
    /// One views buffer reused across every control-plane decision.
    views: Vec<ReplicaView>,
    lost_prefill: usize,
    migrations: MigrationTotals,
}

impl<'a, A: Iterator<Item = Request>> Driver<'a, A> {
    /// Seeds the queue: every plan fault, the autoscaler's first decision
    /// point, the first arrival.
    ///
    /// # Panics
    /// Panics if the plan targets a replica the fleet doesn't have.
    fn new(
        control: &'a mut ControlPlane,
        autoscale: Option<&'a mut AutoscaleConfig>,
        pool: &'a Pool,
        reps: Vec<Replica<'a>>,
        mut arrivals: A,
        plan: &FaultPlan,
    ) -> Self {
        let next_arrival = arrivals.next();
        let mut driver = Self {
            control,
            autoscale,
            pool,
            views: Vec::with_capacity(reps.len()),
            reps,
            queue: EventQueue::new(),
            faults: Vec::with_capacity(plan.faults().len()),
            arrivals,
            next_arrival,
            arrived: IdTally::default(),
            shed: Vec::new(),
            parked: Vec::new(),
            lost_prefill: 0,
            migrations: MigrationTotals::default(),
        };
        for f in plan.faults() {
            assert!(
                f.replica < driver.reps.len(),
                "fault plan targets replica {} of a {}-replica fleet",
                f.replica,
                driver.reps.len()
            );
            driver.inject(f.at_s, f.replica, f.kind);
        }
        if let Some(auto) = &driver.autoscale {
            driver.queue.push(auto.interval_s, FAULT_LANE, Event::Autoscale);
        }
        driver.arm_arrival();
        driver
    }

    /// The driver loop. **Horizon:** the earliest key at which anything
    /// outside a replica can act. **Advance:** every replica due before it
    /// ticks up to it. **Pop:** the queue head, one handler per event kind
    /// — unless an upgrade bound set the horizon, in which case the round
    /// repeats against the moved bound or the restart now queued.
    fn run(&mut self) {
        loop {
            let head = self.queue.peek().map(|(t, lane)| (time_key(t), lane));
            let horizon = self.horizon(head);
            self.advance(horizon);
            if horizon != head {
                continue;
            }
            let Some((now, _, event)) = self.queue.pop() else {
                return;
            };
            match event {
                Event::Arrival => self.on_arrival(now),
                Event::Fault(idx) => self.on_fault(now, idx),
                Event::Autoscale => self.on_autoscale(now),
            }
        }
    }

    /// The queue `head`, lowered for every busy replica with a pending
    /// upgrade to `(clock + downtime, FAULT_LANE)`. The restart that
    /// replica's drain injects is the only event a tick can create, and it
    /// lands no earlier than that bound because clocks only advance — so
    /// every tick before the horizon is one the queue would have ordered
    /// before every event still to come.
    fn horizon(&self, head: Option<(u64, u64)>) -> Option<(u64, u64)> {
        self.reps
            .iter()
            .filter(|r| r.due.is_some())
            .filter_map(|r| {
                let (downtime_s, _) = r.life.pending_upgrade()?;
                Some((time_key(r.clock() + downtime_s), FAULT_LANE))
            })
            .fold(head, |h, bound| Some(h.map_or(bound, |h| h.min(bound))))
    }

    /// Ticks every replica due before `horizon` up to it — concurrently
    /// when two or more are due and the pool has threads, since until the
    /// horizon a replica touches only its own state — then settles the
    /// ones that drained in `(last tick key, index)` order: the order an
    /// event-per-tick queue would have popped those ticks, so restarts they
    /// inject at one instant keep their FIFO `seq`.
    fn advance(&mut self, horizon: Option<(u64, u64)>) {
        let due = self.reps.iter_mut().filter(|r| r.due_before(horizon));
        if self.pool.threads() > 1 {
            // The pool runs a single due replica inline.
            let mut due: Vec<&mut Replica<'_>> = due.collect();
            self.pool.par_map_mut(&mut due, |_, rep| rep.advance_to_barrier(horizon));
        } else {
            due.for_each(|rep| rep.advance_to_barrier(horizon));
        }
        // Drained this round: no work left, still holding a due key.
        while let Some(i) = (0..self.reps.len())
            .filter(|&i| self.reps[i].due.is_some() && self.reps[i].done())
            .min_by_key(|&i| (self.reps[i].due, i))
        {
            self.settle(i);
        }
    }

    /// Ends the run's books: parked work had no restart to go to and is
    /// shed, every ledger is audited, and finished ∪ shed must be exactly
    /// the arrivals — none lost to a crash, none served twice.
    fn close(&mut self) {
        self.shed.extend(self.parked.drain(..).map(|r| (r.id, r.slo().tier)));
        self.reps.iter().for_each(Replica::audit);
        let mut accounted = IdTally::default();
        self.reps.iter_mut().for_each(|rep| accounted.merge(rep.sched.fold().retired));
        self.shed.iter().for_each(|&(id, _)| accounted.add(id));
        assert_eq!(accounted, self.arrived, "finished ∪ shed is not the arrivals");
    }

    /// Closes the run's books and folds the run into its report.
    fn finish(mut self) -> ClusterReport {
        self.close();
        let mut slices: Vec<ReplicaSlice<'_>> = self.reps.iter_mut().map(Replica::slice).collect();
        aggregate(
            self.control.routing_name(),
            self.control.admission_name(),
            &mut slices,
            &self.shed,
            self.lost_prefill,
            self.migrations,
        )
    }

    // -- shared steps -------------------------------------------------------

    /// Queues the `Arrival` event of the request waiting at the front door.
    fn arm_arrival(&mut self) {
        if let Some(r) = &self.next_arrival {
            self.queue.push(r.arrival_s, ARRIVAL_LANE, Event::Arrival);
        }
    }

    /// Appends a lifecycle event to the fault table and schedules it on the
    /// fault lane.
    fn inject(&mut self, at_s: f64, replica: usize, kind: FaultKind) {
        self.faults.push(Fault { at_s, replica, kind });
        self.queue.push(at_s, FAULT_LANE, Event::Fault(self.faults.len() - 1));
    }

    /// Snapshots every replica into the shared views buffer.
    fn refresh_views(&mut self) {
        self.views.clear();
        self.views.extend(self.reps.iter().enumerate().map(|(i, r)| r.view(i)));
    }

    /// A replica index the control plane chose, checked against the fleet
    /// size.
    fn checked(&self, choice: usize) -> usize {
        assert!(
            choice < self.reps.len(),
            "control plane (routing '{}') picked replica {} of {}",
            self.control.routing_name(),
            choice,
            self.reps.len()
        );
        choice
    }

    /// Hands `req` to replica `choice`, arming its next tick if it was
    /// drained (a drained replica was due at nothing; it re-enters at its
    /// current clock — its first tick idles it forward to the new
    /// request's arrival if needed).
    fn deliver(&mut self, choice: usize, req: Request) {
        let rep = &mut self.reps[choice];
        let was_drained = rep.done();
        rep.submit(req);
        if was_drained {
            rep.arm();
        }
    }

    /// Routes one already-admitted request (a crash victim, or a parked
    /// request delivered at a restart) through the control plane's
    /// requeue path (admission bypassed — the request was admitted once
    /// and the cluster owes it a finish). When *no* replica accepts work
    /// the request is parked until a restart.
    fn route_requeued(&mut self, req: Request) {
        self.refresh_views();
        match self.control.place_requeued(&req, &self.views) {
            Some(choice) => {
                let choice = self.checked(choice);
                self.deliver(choice, req);
            }
            None => self.parked.push(req),
        }
    }

    /// Replica `i` ran dry: it is due at nothing; start the downtime of a
    /// pending upgrade (its last resident just finished) or let a drained
    /// (non-accepting) replica leave the fleet bill — accepting replicas
    /// stay provisioned (no-op).
    fn settle(&mut self, i: usize) {
        let rep = &mut self.reps[i];
        rep.due = None;
        if rep.life.pending_upgrade().is_some() {
            self.begin_upgrade_downtime(i);
        } else {
            let idle_at = rep.clock();
            rep.life.release_idle(idle_at);
        }
    }

    /// A replica that drained with an upgrade pending goes offline for its
    /// downtime and chains a restart fault at `clock + downtime` on the
    /// fault lane.
    fn begin_upgrade_downtime(&mut self, replica: usize) {
        let rep = &mut self.reps[replica];
        let (downtime_s, _) =
            rep.life.pending_upgrade().expect("upgrade downtime without a pending upgrade");
        let restart_at = rep.clock() + downtime_s;
        rep.life.go_offline(rep.clock());
        self.inject(restart_at, replica, FaultKind::Restart);
    }

    /// Executes a [`Placement::Migrate`]: copies prefix group `group`'s
    /// COW pages from `from` to `to`, charging the destination's page
    /// ledger for the copy (the source keeps its pages — its residents are
    /// still decoding against them), anchoring the imported pool so it
    /// survives until members arrive, warming the destination scheduler so
    /// those members alias the moved prefix instead of re-prefilling, and
    /// pricing the transfer into the destination's clock at link
    /// bandwidth. A destination that already holds the pool, or lacks the
    /// free pages, declines the copy — the request still routes there (the
    /// pin moved), it just rebuilds the prefix the slow way.
    fn migrate_group(&mut self, group: u64, from: usize, to: usize, now: f64) {
        let link = self
            .control
            .migration()
            .expect("migrate placement without a migration config")
            .link;
        let Some(pages_per_layer) = self.reps[from].budget.pool_pages_per_layer(group) else {
            // The source pool already drained (its last member finished
            // between the saturation estimate and now): nothing to copy.
            return;
        };
        let dest = &mut self.reps[to];
        let Some(pages) = dest.budget.import_pool(group, pages_per_layer) else {
            return;
        };
        let warm_tokens = pages_per_layer * dest.budget.page_tokens();
        dest.sched.install_warm_prefix(group, warm_tokens);
        let bytes =
            u64::try_from(pages).expect("page count fits u64") * dest.cost.engine.kv_page_bytes();
        // The copy lands as of the arrival instant and occupies the
        // destination for the transfer time — identical cost shape to a
        // swap, but across the replica fabric.
        dest.sched.advance_clock_to(now);
        dest.sched.charge_migration(link.transfer_latency(bytes as f64));
        self.migrations.migrations += 1;
        self.migrations.pages += pages;
        self.migrations.bytes += bytes;
    }

    // -- handlers -----------------------------------------------------------

    /// The request at the front door meets the control plane: shed, route,
    /// or migrate-then-route; then the next arrival is queued.
    fn on_arrival(&mut self, now: f64) {
        let req = self.next_arrival.take().expect("arrival event without a request");
        self.arrived.add(req.id);
        let key = (req.arrival_s, req.id);
        self.refresh_views();
        match self.control.place(&req, &self.views) {
            Placement::Shed => self.shed.push((req.id, req.slo().tier)),
            Placement::Route(choice) => {
                let choice = self.checked(choice);
                self.deliver(choice, req);
            }
            Placement::Migrate { group, from, to } => {
                let (from, to) = (self.checked(from), self.checked(to));
                self.migrate_group(group, from, to, now);
                self.deliver(to, req);
            }
        }
        self.next_arrival = self.arrivals.next();
        // The stream is consumed as is, never sorted: a source out of
        // `(arrival_s, id)` order would silently reorder the event loop.
        if let Some(next) = &self.next_arrival {
            assert!(
                (next.arrival_s, next.id) >= key,
                "arrivals out of (arrival_s, id) order: {:?} follows {:?}",
                (next.arrival_s, next.id),
                key
            );
        }
        self.arm_arrival();
    }

    /// A lifecycle event from the fault table fires.
    fn on_fault(&mut self, now: f64, idx: usize) {
        let Fault { replica, kind, .. } = self.faults[idx];
        match kind {
            FaultKind::Crash => self.crash(now, replica),
            FaultKind::Drain => self.drain(now, replica),
            FaultKind::Restart => self.restart(now, replica),
            FaultKind::Upgrade { downtime_s, rolling } => {
                self.upgrade(now, replica, downtime_s, rolling);
            }
        }
    }

    /// The replica's KV pool dies; its residents requeue through routing.
    /// A crash on an already-dead replica evicts nothing.
    fn crash(&mut self, now: f64, replica: usize) {
        let rep = &mut self.reps[replica];
        if !rep.life.crash(now) {
            return;
        }
        rep.due = None;
        let (victims, lost) = rep.sched.evict_all(&mut rep.budget);
        // Anchored (migrated-in) pools die with the replica: release the
        // control plane's refs, then audit that every page the crash
        // destroyed was released, none minted.
        rep.budget.release_anchors();
        rep.budget.assert_consistent();
        assert_eq!(
            rep.budget.free_pages(),
            rep.budget.total_pages(),
            "crash left pages allocated on replica {replica}"
        );
        rep.requeued_away += victims.len();
        self.lost_prefill += lost;
        for mut req in victims {
            // Requeued work becomes eligible at the crash instant;
            // TTFT/latency still run from the original arrival.
            req.ready_s = now;
            req.requeued = true;
            self.route_requeued(req);
        }
    }

    /// The replica stops accepting; residents finish normally.
    fn drain(&mut self, now: f64, replica: usize) {
        let rep = &mut self.reps[replica];
        rep.life.drain();
        if rep.done() {
            // Already idle: the bill closes at the drain instant, not at
            // some stale clock.
            rep.life.release_idle(now);
        }
    }

    /// The replica re-opens (or comes back online), chains a rolling
    /// upgrade to the next replica, and parked work is delivered.
    fn restart(&mut self, now: f64, replica: usize) {
        let rep = &mut self.reps[replica];
        if !rep.life.online() {
            // A crashed/upgrading replica comes back with its clock at the
            // restart instant (an online drained replica re-opens admission
            // only).
            rep.sched.advance_clock_to(now);
        }
        if let Some((downtime_s, true)) = rep.life.restart(now) {
            if replica + 1 < self.reps.len() {
                // Rolling: this replica is back, the next one starts its
                // upgrade now.
                self.inject(now, replica + 1, FaultKind::Upgrade { downtime_s, rolling: true });
            }
        }
        // A replica accepts again: deliver parked work.
        for req in std::mem::take(&mut self.parked) {
            self.route_requeued(req);
        }
    }

    /// The replica stops accepting and, once idle, sits out its downtime.
    fn upgrade(&mut self, now: f64, replica: usize, downtime_s: f64, rolling: bool) {
        let rep = &mut self.reps[replica];
        if rep.life.online() {
            rep.life.begin_upgrade(downtime_s, rolling);
            if rep.done() {
                // Already idle: the downtime starts at the fault instant,
                // not the stale clock of its last tick.
                rep.sched.advance_clock_to(now);
                self.begin_upgrade_downtime(replica);
            }
        } else if rolling && replica + 1 < self.reps.len() {
            // A dead replica can't upgrade; pass the wave along so the
            // fleet still finishes.
            self.inject(now, replica + 1, FaultKind::Upgrade { downtime_s, rolling });
        }
    }

    /// The autoscaler's decision point: close the gap between the accepting
    /// replicas and the policy's target through `Restart`/`Drain` faults at
    /// this instant, then re-arm one interval later.
    fn on_autoscale(&mut self, now: f64) {
        // The scaler acts (and re-arms) only while traffic still arrives;
        // after the last arrival the fleet drains naturally and the run can
        // end.
        if self.next_arrival.is_none() {
            return;
        }
        self.refresh_views();
        let auto = self.autoscale.as_mut().expect("autoscale event without a config");
        let interval_s = auto.interval_s;
        let accepting = self.views.iter().filter(|v| v.accepting).count();
        let target = auto.policy.target_online(now, &self.views).clamp(1, self.reps.len());
        // Wake standbys (and drained/crashed replicas), lowest index first,
        // through Restart faults — the exact path a fault-plan restart
        // takes. Replicas mid-upgrade keep their pending downtime.
        let mut need = target.saturating_sub(accepting);
        for i in 0..self.reps.len() {
            let life = &self.reps[i].life;
            if need > 0 && !life.accepting() && life.pending_upgrade().is_none() {
                self.inject(now, i, FaultKind::Restart);
                need -= 1;
            }
        }
        // Drain the highest-index accepting replicas — scale-down *is* the
        // drain fault.
        let mut excess = accepting.saturating_sub(target);
        for i in (0..self.reps.len()).rev() {
            if excess > 0 && self.reps[i].life.accepting() {
                self.inject(now, i, FaultKind::Drain);
                excess -= 1;
            }
        }
        self.queue.push(now + interval_s, FAULT_LANE, Event::Autoscale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::SystemConfig;
    use crate::engine::ServeConfig;
    use crate::request::{ArrivalPattern, PrefixSharing, Slo, SloSpec};
    use crate::scheduler::{Fcfs, MemoryAware};
    use qserve_gpusim::{GpuSpec, HostLink, TpGroup};
    use qserve_model::ModelConfig;

    fn engine() -> ServingEngine {
        ServingEngine::new(
            GpuSpec::a100(),
            ModelConfig::llama2_7b(),
            SystemConfig::QServePerChannel,
        )
        .expect("A100 serves Llama-2-7B")
    }

    fn shared_spec() -> WorkloadSpec {
        WorkloadSpec::shared_prefix(4, 2048, 48, 71)
    }

    impl Cluster {
        /// The retired step-driven driver, kept as the equivalence oracle
        /// for the event core: no queue, an O(replicas) min-clock scan per
        /// step, a freshly collected snapshot per decision — advance
        /// whichever replica is furthest behind, route the arrival, repeat.
        ///
        /// # Panics
        /// Panics if the control plane asks for a migration — the step
        /// driver exists to pin *static* configurations bit-for-bit and
        /// models no page movement.
        fn serve_paged_step_reference(
            &mut self,
            spec: &WorkloadSpec,
            mk_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
            reservation: Reservation,
            opts: SchedOptions,
        ) -> Result<ClusterReport, EngineUnavailable> {
            /// Index of the lowest-clock replica that still has work and
            /// whose clock is strictly below `horizon` (ties to the lowest
            /// index) — the linear scan the event queue's ordering subsumes.
            fn laggard(reps: &[Replica<'_>], horizon: f64) -> Option<usize> {
                let mut best: Option<usize> = None;
                for (i, r) in reps.iter().enumerate() {
                    if r.done() || r.clock() >= horizon {
                        continue;
                    }
                    if best.is_none_or(|b| r.clock() < reps[b].clock()) {
                        best = Some(i);
                    }
                }
                best
            }

            self.control.reset();
            let mut reps =
                build_replicas(&self.engines, self.engines.len(), spec, &mk_policy, reservation, opts)?;
            let mut shed: Vec<(RequestId, Tier)> = Vec::new();
            for req in spec.sample() {
                // Advance every replica that still has work and lags this
                // arrival (lowest clock first, ties to the lowest index), so
                // the decision observes each replica as of the arrival
                // instant.
                while let Some(i) = laggard(&reps, req.arrival_s) {
                    reps[i].tick();
                }
                let views: Vec<ReplicaView> =
                    reps.iter().enumerate().map(|(i, r)| r.view(i)).collect();
                match self.control.place(&req, &views) {
                    Placement::Shed => shed.push((req.id, req.slo().tier)),
                    Placement::Route(choice) => reps[choice].submit(req),
                    Placement::Migrate { .. } => {
                        panic!("the step reference models no page migration")
                    }
                }
            }
            // Drain: keep ticking the furthest-behind replica until all
            // finish.
            while let Some(i) = laggard(&reps, f64::INFINITY) {
                reps[i].tick();
            }
            let mut slices: Vec<ReplicaSlice<'_>> = reps.iter_mut().map(Replica::slice).collect();
            Ok(aggregate(
                self.control.routing_name(),
                self.control.admission_name(),
                &mut slices,
                &shed,
                0,
                MigrationTotals::default(),
            ))
        }
    }

    #[test]
    fn one_replica_cluster_bit_identical_to_single_engine() {
        // The pinning invariant: a 1-replica TP=1 cluster performs exactly
        // the single-engine ticks, so every shared report field matches bit
        // for bit.
        let e = engine();
        for (spec, opts) in [
            (WorkloadSpec::mixed(32, 23), SchedOptions::default()),
            (
                shared_spec(),
                SchedOptions { share_prefixes: true, chunk_tokens: Some(512), ..SchedOptions::default() },
            ),
        ] {
            let single = e
                .serve(
                    &spec,
                    Box::new(MemoryAware::default()),
                    ServeConfig::paged(Reservation::OnDemand).with_opts(opts),
                )
                .expect("serves");
            let mut cluster = Cluster::new(e.clone(), 1, Box::new(RoundRobin::default()));
            let report = cluster
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("serves");
            assert!(
                report.matches_single_engine(&single),
                "cluster {:?} drifted from single-engine {:?}",
                report,
                single
            );
        }
    }

    #[test]
    fn one_replica_cluster_matches_single_engine_with_arrivals() {
        let e = engine();
        let spec = WorkloadSpec::chat(24, 5)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 4.0 });
        let single = e
            .serve(&spec, Box::new(Fcfs), ServeConfig::paged(Reservation::OnDemand))
            .expect("serves");
        let mut cluster = Cluster::new(e, 1, Box::new(LeastOutstanding));
        let report = cluster
            .serve_paged(
                &spec,
                || Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert!(report.matches_single_engine(&single));
    }

    #[test]
    fn scaling_out_replicas_lifts_throughput() {
        let e = engine();
        let spec = WorkloadSpec::mixed(192, 11);
        let run = |n: usize| {
            Cluster::new(e.clone(), n, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.completed, 192);
        assert_eq!(four.completed, 192);
        assert_eq!(one.generated_tokens, four.generated_tokens);
        assert!(
            four.throughput_tps > one.throughput_tps * 2.0,
            "4 replicas should scale throughput well past 2×: {} vs {}",
            four.throughput_tps,
            one.throughput_tps
        );
        assert!(four.makespan_s < one.makespan_s);
        assert!(four.p99_latency_s < one.p99_latency_s, "queueing delay must shrink");
        // Work actually spread: every replica saw requests.
        assert!(four.per_replica.iter().all(|r| r.routed > 0));
    }

    #[test]
    fn routing_policies_place_every_request_exactly_once() {
        let e = engine();
        let spec = shared_spec();
        let policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(RoundRobin::default()),
            Box::new(LeastOutstanding),
            Box::new(PrefixAffinity::default()),
            Box::new(DeadlineAware),
        ];
        for policy in policies {
            let name = policy.name();
            let report = Cluster::new(e.clone(), 3, policy)
                .serve_paged(
                    &spec,
                    || Box::new(Fcfs),
                    Reservation::OnDemand,
                    SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
                )
                .expect("serves");
            assert_eq!(report.completed, 48, "{} dropped requests", name);
            assert_eq!(
                report.per_replica.iter().map(|r| r.routed).sum::<usize>(),
                48,
                "{} routed a request twice or not at all",
                name
            );
            for r in &report.per_replica {
                assert_eq!(r.completed, r.routed, "{} lost a routed request", name);
            }
        }
    }

    #[test]
    fn prefix_affinity_pins_groups_and_cuts_peak_pages() {
        // 4 tenants on 4 replicas: affinity stores each system prompt on
        // one replica; round-robin replicates every prompt everywhere. The
        // per-replica unique-page high-water and the TTFT must both win.
        let e = engine();
        let spec = shared_spec();
        let run = |policy: Box<dyn RoutingPolicy>| {
            Cluster::new(e.clone(), 4, policy)
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() },
                )
                .expect("serves")
        };
        let rr = run(Box::new(RoundRobin::default()));
        let affinity = run(Box::new(PrefixAffinity::default()));
        assert_eq!(rr.completed, 48);
        assert_eq!(affinity.completed, 48);
        assert!(
            affinity.max_replica_peak_pages < rr.max_replica_peak_pages,
            "affinity must dedupe prefixes per replica: {} vs {}",
            affinity.max_replica_peak_pages,
            rr.max_replica_peak_pages
        );
        assert!(
            affinity.mean_ttft_s < rr.mean_ttft_s,
            "affinity must alias more prefixes (lower TTFT): {} vs {}",
            affinity.mean_ttft_s,
            rr.mean_ttft_s
        );
    }

    #[test]
    fn tensor_parallel_replicas_serve_faster_per_replica() {
        // A replica may be a whole TP group: same cluster, beefier engines.
        let spec = WorkloadSpec::mixed(32, 7);
        let run = |e: ServingEngine| {
            Cluster::new(e, 2, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let tp1 = run(engine());
        let tp4 = run(
            ServingEngine::with_tp(
                GpuSpec::a100(),
                ModelConfig::llama2_7b(),
                SystemConfig::QServePerChannel,
                TpGroup::nvlink(4),
            )
            .expect("builds"),
        );
        assert_eq!(tp4.completed, 32);
        assert!(
            tp4.throughput_tps > tp1.throughput_tps,
            "TP=4 replicas {} must outserve TP=1 {}",
            tp4.throughput_tps,
            tp1.throughput_tps
        );
    }

    #[test]
    fn repeated_serves_on_one_cluster_replay_identically() {
        // serve_paged rebuilds replicas per call and resets the control
        // plane, so a second serve on the same Cluster must equal the
        // first (and a fresh Cluster) — no pins or cursor state leak
        // across runs.
        let e = engine();
        let spec = shared_spec();
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let serve = |c: &mut Cluster| {
            c.serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
                .expect("serves")
        };
        for policy in [0usize, 1] {
            let mk: Box<dyn Fn() -> Box<dyn RoutingPolicy>> = match policy {
                0 => Box::new(|| Box::new(PrefixAffinity::default()) as Box<dyn RoutingPolicy>),
                _ => Box::new(|| Box::new(RoundRobin::default()) as Box<dyn RoutingPolicy>),
            };
            let mut reused = Cluster::new(e.clone(), 3, mk());
            let first = serve(&mut reused);
            let second = serve(&mut reused);
            assert_eq!(first, second, "state leaked across serves");
            let fresh = serve(&mut Cluster::new(e.clone(), 3, mk()));
            assert_eq!(first, fresh, "reused cluster diverged from a fresh one");
        }
    }

    #[test]
    fn mixed_fleet_serves_and_reports_per_replica_specs() {
        // 1×A100 + 1×L40S: both serve, the report names each replica's GPU,
        // and work-normalized routing sends the A100 more work than the
        // slower L40S.
        let a100 = engine();
        let l40s = ServingEngine::new(
            GpuSpec::l40s(),
            ModelConfig::llama2_7b(),
            SystemConfig::QServePerGroup,
        )
        .expect("L40S serves Llama-2-7B");
        let spec = WorkloadSpec::chat(64, 13);
        let report = Cluster::heterogeneous(
            vec![a100.clone(), l40s.clone()],
            Box::new(LeastOutstanding),
        )
        .serve_paged(
            &spec,
            || Box::new(MemoryAware::default()),
            Reservation::OnDemand,
            SchedOptions::default(),
        )
        .expect("serves");
        assert_eq!(report.completed, 64);
        assert_eq!(report.shed, 0);
        assert_eq!(report.per_replica[0].gpu, "A100-80G-SXM4");
        assert_eq!(report.per_replica[1].gpu, "L40S-48G");
        assert!(
            report.per_replica[0].generated_tokens > report.per_replica[1].generated_tokens,
            "the faster A100 must absorb more work: {} vs {}",
            report.per_replica[0].generated_tokens,
            report.per_replica[1].generated_tokens
        );
        // Utilization is a sane fraction on every replica.
        for r in &report.per_replica {
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9, "util {}", r.utilization);
            assert!(r.busy_s <= r.clock_s + 1e-9);
        }
        // No SLOs ⇒ goodput is throughput and attainment is total.
        assert_eq!(report.goodput_tps.to_bits(), report.throughput_tps.to_bits());
        assert_eq!(report.slo_attainment, 1.0);
    }

    #[test]
    fn homogeneous_admit_all_fleet_identical_to_plain_constructor() {
        // The PR-4 pinning invariant, rephrased: Cluster::new is
        // Cluster::heterogeneous with N copies + AdmitAll, bit for bit.
        let e = engine();
        let spec = shared_spec();
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let plain = Cluster::new(e.clone(), 3, Box::new(LeastOutstanding))
            .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
            .expect("serves");
        let hetero = Cluster::heterogeneous(
            vec![e.clone(), e.clone(), e],
            Box::new(LeastOutstanding),
        )
        .with_admission(Box::new(AdmitAll))
        .serve_paged(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts)
        .expect("serves");
        assert_eq!(plain, hetero);
    }

    #[test]
    fn all_shed_report_is_edge_safe() {
        // An impossible deadline on every request + deadline admission:
        // everything is shed, nothing runs, and the report stays finite.
        let e = engine();
        let spec = WorkloadSpec::chat(12, 3).with_slos(SloSpec::Cycle(vec![
            Slo::interactive(1e-9, 1e-9),
        ]));
        let report = Cluster::new(e, 2, Box::new(RoundRobin::default()))
            .with_admission(Box::new(DeadlineFeasible))
            .serve_paged(
                &spec,
                || Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("constructs replicas");
        assert_eq!(report.completed, 0);
        assert_eq!(report.shed, 12);
        assert_eq!(report.shed_ids.len(), 12);
        assert_eq!(report.shed_by_tier, [12, 0, 0]);
        assert_eq!(report.generated_tokens, 0);
        assert_eq!(report.throughput_tps, 0.0);
        assert_eq!(report.goodput_tps, 0.0);
        assert_eq!(report.slo_attainment, 0.0);
        assert_eq!(report.mean_ttft_s, 0.0);
        assert_eq!(report.p50_latency_s, 0.0);
        assert_eq!(report.p99_latency_s, 0.0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.gpu_seconds, 0.0);
        for r in &report.per_replica {
            assert_eq!(r.routed, 0);
            assert_eq!(r.utilization, 0.0);
        }
    }

    #[test]
    fn event_core_matches_step_reference_on_fixed_configs() {
        // The event-driven driver must finish the same requests at
        // bit-identical times as the retired step-driven reference — full
        // ClusterReport equality (floats compared via derived PartialEq).
        let e = engine();
        for (spec, opts, replicas) in [
            (WorkloadSpec::mixed(96, 11), SchedOptions::default(), 3),
            (
                WorkloadSpec::chat(48, 5)
                    .with_arrivals(ArrivalPattern::Poisson { rate_rps: 4.0 }),
                SchedOptions::default(),
                2,
            ),
            (
                shared_spec(),
                SchedOptions { share_prefixes: true, chunk_tokens: Some(512), ..SchedOptions::default() },
                2,
            ),
        ] {
            let mut cluster =
                Cluster::new(e.clone(), replicas, Box::new(LeastOutstanding));
            let event = cluster
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("event core serves");
            let step = cluster
                .serve_paged_step_reference(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    opts,
                )
                .expect("step reference serves");
            assert_eq!(event, step, "event core diverged from the step driver");
        }
    }

    qserve_tensor::props! {
        /// Randomized equivalence oracle: across fleet sizes, workloads,
        /// arrival patterns, SLO mixes, scheduling policies, routers and
        /// admission gates, the event core and the step-driven reference
        /// produce bit-identical [`ClusterReport`]s on the same trace.
        fn event_core_is_bit_identical_to_step_reference(rng, cases = 12) {
            let replicas = rng.int_in(1, 4) as usize;
            let n = rng.int_in(16, 48) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let mut spec = if rng.int_in(0, 1) == 0 {
                WorkloadSpec::chat(n, seed)
            } else {
                WorkloadSpec::mixed(n, seed)
            };
            spec = match rng.int_in(0, 2) {
                0 => spec, // offline batch
                1 => spec.with_arrivals(ArrivalPattern::Uniform {
                    rate_rps: f64::from(rng.uniform(2.0, 16.0)),
                }),
                _ => spec.with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(2.0, 16.0)),
                }),
            };
            if rng.int_in(0, 1) == 1 {
                spec = spec.with_slos(SloSpec::Cycle(vec![
                    Slo::interactive(2.0, 8.0),
                    Slo::standard(6.0, 20.0),
                    Slo::best_effort(),
                ]));
            }
            let share = rng.int_in(0, 3) == 0;
            if share {
                spec = spec.with_sharing(PrefixSharing::Groups {
                    groups: 2,
                    prefix_len: 256,
                });
            }
            let opts = SchedOptions {
                share_prefixes: share,
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let mk_policy = {
                let pick = rng.int_in(0, 1);
                move || -> Box<dyn SchedulingPolicy> {
                    match pick {
                        0 => Box::new(Fcfs),
                        _ => Box::new(MemoryAware::default()),
                    }
                }
            };
            let routing: Box<dyn RoutingPolicy> = match rng.int_in(0, 3) {
                0 => Box::new(RoundRobin::default()),
                1 => Box::new(LeastOutstanding),
                2 => Box::new(DeadlineAware),
                _ => Box::new(PrefixAffinity::default()),
            };
            let admission: Box<dyn AdmissionPolicy> = match rng.int_in(0, 2) {
                0 => Box::new(AdmitAll),
                1 => Box::new(DeadlineFeasible),
                _ => Box::new(PriorityShed::default()),
            };
            let mut cluster = Cluster::new(engine(), replicas, routing)
                .with_admission(admission);
            let event = cluster
                .serve_paged(&spec, &mk_policy, Reservation::OnDemand, opts)
                .expect("event core serves");
            let step = cluster
                .serve_paged_step_reference(&spec, &mk_policy, Reservation::OnDemand, opts)
                .expect("step reference serves");
            assert_eq!(event, step, "event core diverged from the step driver");
        }
    }

    qserve_tensor::props! {
        /// Thread-count invariance oracle: across random fleet sizes,
        /// workloads, arrival patterns, scheduling policies, routers and
        /// fault plans (seeded crashes and drains, rolling upgrades, and
        /// both at once — a zero downtime puts an upgrade's horizon bound
        /// at its replica's own clock), a parallel cluster produces a
        /// [`ClusterReport`] bit-identical to the single-threaded run.
        fn thread_count_never_changes_the_report(rng, cases = 16) {
            let replicas = rng.int_in(2, 4) as usize;
            let n = rng.int_in(24, 64) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let threads = rng.int_in(2, 4) as usize;
            let mut spec = if rng.int_in(0, 1) == 0 {
                WorkloadSpec::chat(n, seed)
            } else {
                WorkloadSpec::mixed(n, seed)
            };
            if rng.int_in(0, 2) > 0 {
                spec = spec.with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(4.0, 24.0)),
                });
            }
            let opts = SchedOptions {
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let downtime_s = if rng.int_in(0, 1) == 0 { 0.0 } else { 1.0 };
            let seeded = FaultPlan::seeded(seed ^ 0x5eed, replicas, 30.0, 3);
            let plan = match rng.int_in(0, 2) {
                0 => FaultPlan::none(),
                1 => seeded,
                _ => seeded.rolling_upgrade(replicas, 2.0, downtime_s),
            };
            let mk_policy = {
                let pick = rng.int_in(0, 1);
                move || -> Box<dyn SchedulingPolicy> {
                    match pick {
                        0 => Box::new(Fcfs),
                        _ => Box::new(MemoryAware::default()),
                    }
                }
            };
            let route_pick = rng.int_in(0, 2);
            let mk_routing = move || -> Box<dyn RoutingPolicy> {
                match route_pick {
                    0 => Box::new(RoundRobin::default()),
                    1 => Box::new(LeastOutstanding),
                    _ => Box::new(DeadlineAware),
                }
            };
            let run = |t: usize| {
                Cluster::new(engine(), replicas, mk_routing())
                    .with_threads(t)
                    .serve_paged_faulty(&spec, &mk_policy, Reservation::OnDemand, opts, &plan)
                    .expect("cluster serves")
            };
            let sequential = run(1);
            let parallel = run(threads);
            assert_eq!(
                sequential, parallel,
                "report diverged between 1 and {threads} pool threads"
            );
        }
    }

    #[test]
    fn equal_timestamp_cross_lane_ticks_merge_in_lane_order() {
        // The adversarial tie case for concurrent advance: an offline batch
        // split round-robin across identical replicas makes every replica's
        // chunk boundaries collide at bit-equal timestamps, so each round
        // is all ties and the `(time bits, lane)` comparison alone decides
        // who stops at the barrier. Any off-by-one in the tie-break (`>` vs
        // `>=`, or ticking *at* the barrier time) reorders events and shows
        // up as a report diff against the sequential driver.
        let spec = WorkloadSpec::chat(60, 9);
        let run = |threads: usize| {
            Cluster::new(engine(), 3, Box::new(RoundRobin::default()))
                .with_threads(threads)
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("cluster serves")
        };
        let sequential = run(1);
        let parallel = run(3);
        // The scenario must actually exercise concurrent replicas…
        assert_eq!(sequential.completed, 60);
        assert!(sequential.per_replica.iter().all(|r| r.routed == 20));
        // …and the tie-heavy rounds must not reorder a single event.
        assert_eq!(sequential, parallel, "equal-timestamp rounds reordered events");
    }

    #[test]
    fn zero_downtime_rolling_upgrade_makes_progress_at_any_thread_count() {
        // A zero downtime puts a busy upgrading replica's horizon bound at
        // its own clock. Its due key still sorts before the fault lane at
        // an equal time, so every round ticks it at least once — otherwise
        // the driver would spin on the same horizon.
        let spec = WorkloadSpec::mixed(64, 5)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 16.0 });
        let plan = FaultPlan::none().rolling_upgrade(3, 0.5, 0.0);
        let run = |threads: usize| {
            Cluster::new(engine(), 3, Box::new(LeastOutstanding))
                .with_threads(threads)
                .serve_paged_faulty(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                    &plan,
                )
                .expect("cluster serves")
        };
        let sequential = run(1);
        assert_eq!(sequential.completed, 64);
        assert!(
            sequential.per_replica.iter().all(|r| r.restarts == 1),
            "the wave must reach every replica"
        );
        assert_eq!(sequential, run(3), "zero-downtime upgrades diverged across thread counts");
    }

    #[test]
    fn deadline_admission_protects_goodput_under_overload() {
        // Overload a small cluster with deadline-carrying traffic: admit-all
        // serves everything late (low attainment), deadline admission sheds
        // the infeasible tail and lifts both attainment and goodput.
        let e = engine();
        let spec = WorkloadSpec::mixed(768, 7)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 96.0 })
            .with_slos(SloSpec::Cycle(vec![
                Slo::interactive(2.0, 8.0),
                Slo::standard(6.0, 20.0),
                Slo::best_effort(),
            ]));
        let run = |admission: Box<dyn AdmissionPolicy>| {
            Cluster::new(e.clone(), 4, Box::new(LeastOutstanding))
                .with_admission(admission)
                .serve_paged(
                    &spec,
                    || Box::new(Fcfs),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let all = run(Box::new(AdmitAll));
        let gated = run(Box::new(DeadlineFeasible));
        assert_eq!(all.shed, 0);
        assert_eq!(all.completed, 768);
        assert!(all.slo_attainment < 1.0, "overload must cause admit-all misses");
        assert!(gated.shed > 0, "overload must force shedding");
        assert_eq!(gated.completed + gated.shed, 768, "partition");
        assert!(
            gated.slo_attainment > all.slo_attainment,
            "deadline admission must lift attainment: {} vs {}",
            gated.slo_attainment,
            all.slo_attainment
        );
        assert!(
            gated.goodput_tps > all.goodput_tps,
            "deadline admission must lift goodput: {} vs {}",
            gated.goodput_tps,
            all.goodput_tps
        );
        // Goodput never exceeds raw throughput, and the ratio percentiles
        // are ordered.
        for r in [&all, &gated] {
            assert!(r.goodput_tps <= r.throughput_tps + 1e-9);
            assert!(r.slo_ratio_p50 <= r.slo_ratio_p99);
        }
    }

    #[test]
    fn static_fleet_bills_gpu_seconds_for_the_whole_makespan() {
        // Without an autoscaler every replica is provisioned from t=0 to
        // the cluster makespan: per-replica provisioned time equals the
        // makespan bit-for-bit and the fleet bill is n × makespan.
        let report = Cluster::new(engine(), 3, Box::new(LeastOutstanding))
            .serve_paged(
                &WorkloadSpec::mixed(96, 11),
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        for r in &report.per_replica {
            assert_eq!(r.provisioned_s.to_bits(), report.makespan_s.to_bits());
        }
        assert!((report.gpu_seconds - 3.0 * report.makespan_s).abs() < 1e-9);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migrated_pages, 0);
        assert_eq!(report.migrated_bytes, 0);
    }

    /// A shared-prefix overload aimed at one pinned home: one big group,
    /// Poisson arrivals well past a single replica's capacity.
    fn saturating_group_spec(n: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec::shared_prefix(1, 2048, n, seed)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 })
    }

    #[test]
    fn saturated_group_migrates_and_beats_staying_pinned() {
        let e = engine();
        let spec = saturating_group_spec(96, 41);
        let opts = SchedOptions { share_prefixes: true, chunk_tokens: None, ..SchedOptions::default() };
        let pinned = Cluster::new(e.clone(), 2, Box::new(PrefixAffinity::default()))
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        let cfg = MigrationConfig {
            saturation_queue_s: 0.5,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        };
        let mut migrating = Cluster::new(e.clone(), 2, Box::new(LeastOutstanding))
            .with_migration(cfg);
        let moved = migrating
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        // Affinity funnels the whole group onto one replica; migration
        // spreads it once the home saturates — and nothing is lost.
        assert_eq!(pinned.completed, 96);
        assert_eq!(moved.completed, 96, "migration must not lose requests");
        assert_eq!(moved.shed, 0);
        assert!(moved.migrations > 0, "the saturated home must trigger a migration");
        assert!(moved.migrated_pages > 0);
        assert_eq!(
            moved.migrated_bytes,
            u64::try_from(moved.migrated_pages).expect("fits") * e.kv_page_bytes(),
            "migration bytes must price exactly the copied pages"
        );
        assert!(
            moved.throughput_tps > pinned.throughput_tps,
            "migration must beat a saturated pin: {} vs {}",
            moved.throughput_tps,
            pinned.throughput_tps
        );
        // Both replicas served group members after the move.
        assert!(moved.per_replica.iter().all(|r| r.completed > 0));
        // Determinism: an identical second serve replays bit-for-bit.
        let replay = migrating
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        assert_eq!(moved, replay);
    }

    #[test]
    fn autoscaler_wakes_standbys_under_load_and_bills_less_than_static_max() {
        let e = engine();
        // A burst the initial single replica cannot absorb.
        let spec = WorkloadSpec::mixed(192, 17)
            .with_arrivals(ArrivalPattern::Poisson { rate_rps: 24.0 });
        let run_static = |n: usize| {
            Cluster::new(e.clone(), n, Box::new(LeastOutstanding))
                .serve_paged(
                    &spec,
                    || Box::new(MemoryAware::default()),
                    Reservation::OnDemand,
                    SchedOptions::default(),
                )
                .expect("serves")
        };
        let static_max = run_static(4);
        let mut elastic = Cluster::new(e.clone(), 4, Box::new(LeastOutstanding))
            .with_autoscaler(AutoscaleConfig {
                policy: Box::new(QueuePressureScaler {
                    min_replicas: 1,
                    max_replicas: 4,
                    scale_up_queue_s: 2.0,
                    scale_down_queue_s: 0.5,
                }),
                interval_s: 2.0,
                initial_online: 1,
            });
        let auto = elastic
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert_eq!(auto.completed, 192, "autoscaling must not lose requests");
        assert_eq!(auto.shed, 0);
        // The burst forced a scale-up past the initial singleton...
        assert!(
            auto.per_replica.iter().filter(|r| r.routed > 0).count() > 1,
            "the scaler never woke a standby"
        );
        // ...and the bill stays under always-on 4×makespan (standbys wake
        // late, drain early).
        assert!(
            auto.gpu_seconds < 4.0 * auto.makespan_s,
            "elastic bill {} must undercut always-on {}",
            auto.gpu_seconds,
            4.0 * auto.makespan_s
        );
        assert!(auto.gpu_seconds > 0.0);
        // Static fleets are invariant to the new accounting.
        assert!((static_max.gpu_seconds - 4.0 * static_max.makespan_s).abs() < 1e-9);
        // Determinism under autoscaling.
        let replay = elastic
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves");
        assert_eq!(auto, replay);
    }

    qserve_tensor::props! {
        /// Migration conservation: across random fleets, workloads and
        /// saturation-triggered migrations, finished ∪ shed still
        /// partitions the workload exactly, nothing is lost, the migrated
        /// byte accounting matches the copied pages, and the run is
        /// deterministic (the driver's closing audit checks the partition
        /// by id, and both ledgers, on every serve).
        fn migration_conserves_requests_and_pages(rng, cases = 8) {
            let replicas = rng.int_in(2, 4) as usize;
            let n = rng.int_in(24, 64) as usize;
            let seed = rng.int_in(0, 1 << 20) as u64;
            let groups = rng.int_in(1, 2) as usize;
            let mut spec = WorkloadSpec::shared_prefix(groups, 1024, n, seed)
                .with_arrivals(ArrivalPattern::Poisson {
                    rate_rps: f64::from(rng.uniform(8.0, 32.0)),
                });
            if rng.int_in(0, 1) == 1 {
                spec = spec.with_slos(SloSpec::Cycle(vec![
                    Slo::interactive(2.0, 8.0),
                    Slo::best_effort(),
                ]));
            }
            let cfg = MigrationConfig {
                saturation_queue_s: f64::from(rng.uniform(1.0, 6.0)),
                relief_ratio: 0.5,
                migrate_pages: rng.int_in(0, 3) > 0,
                link: if rng.int_in(0, 1) == 0 {
                    HostLink::nvlink_p2p()
                } else {
                    HostLink::pcie4()
                },
            };
            let opts = SchedOptions {
                share_prefixes: true,
                chunk_tokens: if rng.int_in(0, 1) == 1 { Some(256) } else { None },
                ..SchedOptions::default()
            };
            let mut cluster = Cluster::new(engine(), replicas, Box::new(LeastOutstanding))
                .with_migration(cfg);
            let report = cluster
                .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
                .expect("serves");
            // Partition: every request finished on exactly one replica or
            // was shed — never both, never neither.
            let shed: std::collections::BTreeSet<u64> = report.shed_ids.iter().map(|id| id.0).collect();
            assert_eq!(shed.len(), report.shed, "a request was shed twice");
            let completed: usize = report.per_replica.iter().map(|r| r.completed).sum();
            assert_eq!((completed, report.completed + report.shed), (report.completed, n));
            // Byte accounting: every migrated page priced exactly once.
            if !cfg.migrate_pages {
                assert_eq!(report.migrations, 0, "repin-only must copy nothing");
            }
            // Determinism (which also re-runs the in-driver ledger audits).
            let replay = cluster
                .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
                .expect("serves");
            assert_eq!(report, replay);
        }
    }
}

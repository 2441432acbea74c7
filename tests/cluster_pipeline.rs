//! Cluster-serving integration: routing conservation under randomized
//! workloads, single-replica equivalence, and tensor-parallel identities.

use qserve::gpusim::{GpuSpec, TpGroup};
use qserve::model::ModelConfig;
use qserve::serve::cluster::{
    AdmissionPolicy, AdmitAll, Cluster, DeadlineFeasible, LeastOutstanding, PrefixAffinity,
    PriorityShed, RoundRobin, RoutingPolicy,
};
use qserve::serve::request::{
    ArrivalPattern, LengthDist, PrefixSharing, Slo, SloSpec, WorkloadSpec,
};
use qserve::serve::scheduler::{
    Fcfs, MemoryAware, PreemptionMode, Reservation, SchedOptions, SchedulingPolicy,
};
use qserve::serve::{FaultPlan, ServeConfig, ServingEngine, SystemConfig};
use qserve::tensor::props;

fn engine() -> ServingEngine {
    ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B")
}

fn l40s_engine() -> ServingEngine {
    ServingEngine::new(
        GpuSpec::l40s(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerGroup,
    )
    .expect("L40S serves Llama-2-7B")
}

#[test]
fn one_replica_tp1_cluster_equals_single_engine_bitwise() {
    // The acceptance identity: a 1-replica TP=1 cluster run is the
    // single-engine run, bit for bit, for every routing policy.
    let e = engine();
    let spec = WorkloadSpec::shared_prefix(4, 1024, 32, 19);
    let opts = SchedOptions { share_prefixes: true, chunk_tokens: Some(512), ..SchedOptions::default() };
    let single = e
        .serve(
            &spec,
            Box::new(MemoryAware::default()),
            ServeConfig::paged(Reservation::OnDemand).with_opts(opts),
        )
        .expect("serves");
    let policies: Vec<Box<dyn RoutingPolicy>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(LeastOutstanding),
        Box::new(PrefixAffinity::default()),
    ];
    for policy in policies {
        let report = Cluster::new(e.clone(), 1, policy)
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                opts,
            )
            .expect("serves");
        assert!(report.matches_single_engine(&single));
    }
}

#[test]
fn tp1_engine_unchanged_and_tp_group_memory_plan_scales() {
    let e1 = engine();
    let etp = ServingEngine::with_tp(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
        TpGroup::single(),
    )
    .expect("builds");
    assert_eq!(e1.plan(), etp.plan());
    assert_eq!(
        e1.decode_step_latency(32, 1024).to_bits(),
        etp.decode_step_latency(32, 1024).to_bits()
    );
    let e4 = ServingEngine::with_tp(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
        TpGroup::nvlink(4),
    )
    .expect("builds");
    assert!(e4.plan().max_tokens > e1.plan().max_tokens);
}

#[test]
fn empty_fault_plan_is_bit_identical_to_the_fault_free_driver() {
    // The identity the whole fault layer hangs on: with no faults, the
    // faulty driver IS the fault-free driver — the entire report, every
    // float bit, every per-replica row, compared with plain `assert_eq!`.
    let spec = WorkloadSpec {
        num_requests: 24,
        input: LengthDist::Uniform { lo: 64, hi: 768 },
        output: LengthDist::Uniform { lo: 16, hi: 96 },
        arrival: ArrivalPattern::Poisson { rate_rps: 4.0 },
        sharing: PrefixSharing::Groups { groups: 3, prefix_len: 512 },
        slo: SloSpec::Cycle(vec![
            Slo::interactive(2.0, 8.0),
            Slo::standard(6.0, 20.0),
            Slo::best_effort(),
        ]),
        seed: 77,
    };
    for preemption in [PreemptionMode::Recompute, PreemptionMode::Swap] {
        let opts = SchedOptions {
            share_prefixes: true,
            chunk_tokens: Some(256),
            preemption,
        };
        let mut cluster = Cluster::new(engine(), 3, Box::new(RoundRobin::default()));
        let plain = cluster
            .serve_paged(&spec, || Box::new(MemoryAware::default()), Reservation::OnDemand, opts)
            .expect("serves");
        let faulty = cluster
            .serve_paged_faulty(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                opts,
                &FaultPlan::none(),
            )
            .expect("serves");
        assert_eq!(plain, faulty, "an empty fault plan must be a no-op, bit for bit");
        assert_eq!(plain.requeued, 0);
        assert_eq!(plain.lost_prefill_tokens, 0);
        assert_eq!(plain.last_requeued_finish_s, 0.0);
        for rep in &plain.per_replica {
            assert_eq!(rep.requeued_away, 0);
            assert_eq!(rep.restarts, 0);
        }
    }
}

props! {
    /// Faults conserve the workload: under a random seeded plan of
    /// crashes, drains, restarts and rolling upgrades — in both
    /// recompute and swap preemption modes — every generated request is
    /// finished exactly once or shed exactly once, never lost, never
    /// duplicated; requeue accounting balances per replica and
    /// fleet-wide. (The driver additionally audits each crashed
    /// replica's page ledger via `PageBudget::assert_consistent`.)
    fn prop_faults_never_lose_or_duplicate_requests(rng, cases = 10) {
        let n = rng.int_in(8, 32) as usize;
        let seed = rng.next_u64();
        let spec = WorkloadSpec {
            num_requests: n,
            input: LengthDist::Uniform { lo: 64, hi: 768 },
            output: LengthDist::Uniform { lo: 16, hi: 128 },
            arrival: ArrivalPattern::Poisson { rate_rps: 3.0 },
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed,
        };
        let replicas = rng.int_in(2, 4) as usize;
        let plan = FaultPlan::seeded(rng.next_u64(), replicas, 30.0, 6);
        let preemption = match rng.int_in(0, 1) {
            0 => PreemptionMode::Recompute,
            _ => PreemptionMode::Swap,
        };
        let opts = SchedOptions { preemption, ..SchedOptions::default() };
        let routing: Box<dyn RoutingPolicy> = match rng.int_in(0, 1) {
            0 => Box::new(RoundRobin::default()),
            _ => Box::new(LeastOutstanding),
        };
        let report = Cluster::new(engine(), replicas, routing)
            .serve_paged_faulty(&spec, || Box::new(Fcfs), Reservation::OnDemand, opts, &plan)
            .expect("workload must be servable");
        // The partition: shed ∪ finished == generated ids, disjointly —
        // a crash may move work, never destroy it.
        assert_eq!(
            report.completed + report.shed, n,
            "finished ∪ shed must cover the workload under faults"
        );
        let mut seen = std::collections::HashSet::new();
        for id in &report.shed_ids {
            assert!(seen.insert(id.0), "request {} shed twice", id.0);
        }
        for rep in &report.per_replica {
            // The fault-aware ledger: work routed here either finished
            // here or was requeued away by a crash — nothing vanishes.
            assert_eq!(
                rep.completed + rep.requeued_away, rep.routed,
                "replica ledger must balance: completed + requeued_away == routed"
            );
            assert_eq!(rep.completed, rep.finished.len());
            for id in &rep.finished {
                assert!(
                    seen.insert(id.0),
                    "request {} finished twice or was both shed and finished",
                    id.0
                );
            }
        }
        assert_eq!(seen.len(), n, "a request was lost under faults");
        for id in 0..n as u64 {
            assert!(seen.contains(&id), "request {} vanished", id);
        }
        // Every requeue event left exactly one replica and was counted
        // exactly once fleet-wide.
        let away: usize = report.per_replica.iter().map(|r| r.requeued_away).sum();
        assert_eq!(away, report.requeued, "requeue accounting must balance fleet-wide");
        if plan.is_empty() {
            assert_eq!(report.requeued, 0);
            assert_eq!(report.lost_prefill_tokens, 0);
        }
    }
}

props! {
    /// Every routing policy conserves requests across replicas: each
    /// generated request finishes exactly once, on exactly one replica,
    /// under random replica counts, sharing structures, arrivals and
    /// scheduling policies.
    fn prop_routing_conserves_requests_across_replicas(rng, cases = 12) {
        let n = rng.int_in(4, 24) as usize;
        let seed = rng.next_u64();
        let arrival = match rng.int_in(0, 2) {
            0 => ArrivalPattern::Batch,
            1 => ArrivalPattern::Uniform { rate_rps: 2.0 },
            _ => ArrivalPattern::Poisson { rate_rps: 2.0 },
        };
        let sharing = match rng.int_in(0, 2) {
            0 => PrefixSharing::None,
            _ => PrefixSharing::Groups { groups: 3, prefix_len: 512 },
        };
        let spec = WorkloadSpec {
            num_requests: n,
            input: LengthDist::Uniform { lo: 64, hi: 768 },
            output: LengthDist::Uniform { lo: 16, hi: 128 },
            arrival,
            sharing,
            slo: SloSpec::None,
            seed,
        };
        let replicas = rng.int_in(1, 4) as usize;
        let routing: Box<dyn RoutingPolicy> = match rng.int_in(0, 2) {
            0 => Box::new(RoundRobin::default()),
            1 => Box::new(LeastOutstanding),
            _ => Box::new(PrefixAffinity::default()),
        };
        let share = matches!(sharing, PrefixSharing::Groups { .. }) && rng.int_in(0, 1) == 1;
        let opts = SchedOptions {
            share_prefixes: share,
            chunk_tokens: match rng.int_in(0, 1) {
                0 => None,
                _ => Some(256),
            },
            ..SchedOptions::default()
        };
        let sched_policy: fn() -> Box<dyn SchedulingPolicy> = match rng.int_in(0, 1) {
            0 => || Box::new(Fcfs),
            _ => || Box::new(MemoryAware { headroom: 0.25 }),
        };
        let report = Cluster::new(engine(), replicas, routing)
            .serve_paged(&spec, sched_policy, Reservation::OnDemand, opts)
            .expect("workload must be servable");
        assert_eq!(report.completed, n, "every request finishes");
        assert_eq!(report.replicas, replicas);
        // Exactly-once across the fleet: the union of per-replica finished
        // ids is the workload's id set with no duplicates.
        let mut seen = std::collections::HashSet::new();
        for rep in &report.per_replica {
            assert_eq!(rep.completed, rep.routed, "a replica lost a routed request");
            assert_eq!(rep.completed, rep.finished.len());
            for id in &rep.finished {
                assert!(seen.insert(id.0), "request {} finished on two replicas", id.0);
            }
        }
        assert_eq!(seen.len(), n);
        for id in 0..n as u64 {
            assert!(seen.contains(&id), "request {} never finished", id);
        }
        // Token conservation: aggregate generated == Σ spec outputs.
        let expected: usize = spec.sample().iter().map(|r| r.output_len).sum();
        assert_eq!(report.generated_tokens, expected);
    }

    /// Admission control partitions the workload exactly: every generated
    /// request is either shed or finished — never both, never neither —
    /// each finished request finishes exactly once on exactly one replica,
    /// and admit-all sheds nothing, under random heterogeneous fleets,
    /// SLO mixes, routings and admission policies.
    fn prop_admission_partitions_workload_exactly(rng, cases = 10) {
        let n = rng.int_in(4, 24) as usize;
        let seed = rng.next_u64();
        let arrival = match rng.int_in(0, 1) {
            0 => ArrivalPattern::Batch,
            _ => ArrivalPattern::Poisson { rate_rps: 3.0 },
        };
        // Deadlines from generously loose down to unmeetably tight, so
        // deadline admission actually sheds in some cases.
        let tight = 0.001 * rng.int_in(1, 1000) as f64;
        let spec = WorkloadSpec {
            num_requests: n,
            input: LengthDist::Uniform { lo: 64, hi: 768 },
            output: LengthDist::Uniform { lo: 16, hi: 128 },
            arrival,
            sharing: PrefixSharing::None,
            slo: SloSpec::Cycle(vec![
                Slo::interactive(tight, 10.0 * tight),
                Slo::standard(30.0, 120.0),
                Slo::best_effort(),
            ]),
            seed,
        };
        // A random heterogeneous fleet of 1-4 replicas.
        let fleet: Vec<ServingEngine> = (0..rng.int_in(1, 4))
            .map(|_| if rng.int_in(0, 1) == 0 { engine() } else { l40s_engine() })
            .collect();
        let routing: Box<dyn RoutingPolicy> = match rng.int_in(0, 1) {
            0 => Box::new(RoundRobin::default()),
            _ => Box::new(LeastOutstanding),
        };
        let admit_all = rng.int_in(0, 2) == 0;
        let admission: Box<dyn AdmissionPolicy> = if admit_all {
            Box::new(AdmitAll)
        } else if rng.int_in(0, 1) == 0 {
            Box::new(DeadlineFeasible)
        } else {
            Box::new(PriorityShed { queue_budget_s: 0.01 * rng.int_in(1, 200) as f64 })
        };
        let report = Cluster::heterogeneous(fleet, routing)
            .with_admission(admission)
            .serve_paged(
                &spec,
                || Box::new(Fcfs),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("workload must be servable");
        // The partition: shed ∪ finished == generated ids, disjointly.
        assert_eq!(report.completed + report.shed, n, "admitted ∪ shed must cover the workload");
        assert_eq!(report.shed_ids.len(), report.shed);
        assert_eq!(report.shed_by_tier.iter().sum::<usize>(), report.shed);
        let mut seen = std::collections::HashSet::new();
        for id in &report.shed_ids {
            assert!(seen.insert(id.0), "request {} shed twice", id.0);
        }
        for rep in &report.per_replica {
            assert_eq!(rep.completed, rep.routed, "a replica lost a routed request");
            for id in &rep.finished {
                assert!(
                    seen.insert(id.0),
                    "request {} both shed and finished, or finished twice",
                    id.0
                );
            }
        }
        assert_eq!(seen.len(), n, "a request was neither shed nor finished");
        for id in 0..n as u64 {
            assert!(seen.contains(&id), "request {} vanished", id);
        }
        if admit_all {
            assert_eq!(report.shed, 0, "admit-all must shed nothing");
            assert!(report.shed_ids.is_empty());
        }
        // Shed tokens are really never generated.
        let by_id: std::collections::HashMap<u64, usize> =
            spec.sample().iter().map(|r| (r.id.0, r.output_len)).collect();
        let expected: usize = by_id
            .iter()
            .filter(|(id, _)| !report.shed_ids.iter().any(|s| s.0 == **id))
            .map(|(_, out)| out)
            .sum();
        assert_eq!(report.generated_tokens, expected);
    }
}

//! Heterogeneous fleet serving with SLO-aware admission control: a mixed
//! 2×A100 + 2×L40S fleet under sustained overload, comparing round-robin
//! against work-normalized routing (outstanding tokens ÷ replica decode
//! throughput) and admit-all against deadline-feasibility shedding.
//!
//! ```text
//! cargo run --release --example heterogeneous_fleet
//! ```

use qserve::gpusim::GpuSpec;
use qserve::model::ModelConfig;
use qserve::serve::cluster::{
    AdmissionPolicy, AdmitAll, Cluster, DeadlineFeasible, LeastOutstanding, RoundRobin,
    RoutingPolicy,
};
use qserve::serve::ledger::Reservation;
use qserve::serve::request::{ArrivalPattern, Slo, SloSpec, WorkloadSpec};
use qserve::serve::scheduler::{MemoryAware, SchedOptions};
use qserve::serve::{ServingEngine, SystemConfig};

fn main() {
    let a100 = ServingEngine::new(
        GpuSpec::a100(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerChannel,
    )
    .expect("A100 serves Llama-2-7B");
    let l40s = ServingEngine::new(
        GpuSpec::l40s(),
        ModelConfig::llama2_7b(),
        SystemConfig::QServePerGroup,
    )
    .expect("L40S serves Llama-2-7B");
    for e in [&a100, &l40s] {
        let s = e.speed_profile();
        println!(
            "{:<14} decode {:>5.0} tok/s  prefill {:>6.0} tok/s  inter-token {:>5.1} ms",
            s.gpu,
            s.decode_tps,
            s.prefill_tps,
            s.decode_step_s * 1e3
        );
    }
    let fleet = vec![a100.clone(), a100, l40s.clone(), l40s];

    // Sustained overload: the production mix at a Poisson rate well above
    // fleet capacity, with an interactive / standard / best-effort SLO mix.
    let spec = WorkloadSpec::mixed(768, 42)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 96.0 })
        .with_slos(SloSpec::Cycle(vec![
            Slo::interactive(2.0, 8.0),
            Slo::standard(6.0, 20.0),
            Slo::best_effort(),
        ]));

    let run = |routing: Box<dyn RoutingPolicy>, admission: Box<dyn AdmissionPolicy>| {
        Cluster::heterogeneous(fleet.clone(), routing)
            .with_admission(admission)
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves")
    };

    println!("\nworkload: 768 mixed requests at 96 rps (overload); 2xA100 + 2xL40S\n");
    println!(
        "{:<18} {:<10} {:>9} {:>9} {:>8} {:>6} {:>8} {:>19}",
        "routing", "admission", "goodput", "tok/s", "SLO att", "shed", "p99", "per-replica util"
    );
    let mut results = std::collections::HashMap::new();
    for (rname, mk_r) in [
        ("round-robin", (|| Box::new(RoundRobin::default()) as Box<dyn RoutingPolicy>)
            as fn() -> Box<dyn RoutingPolicy>),
        ("least-outstanding", || Box::new(LeastOutstanding)),
    ] {
        for (aname, mk_a) in [
            ("admit-all", (|| Box::new(AdmitAll) as Box<dyn AdmissionPolicy>)
                as fn() -> Box<dyn AdmissionPolicy>),
            ("deadline", || Box::new(DeadlineFeasible)),
        ] {
            let r = run(mk_r(), mk_a());
            let utils: Vec<String> =
                r.per_replica.iter().map(|p| format!("{:.2}", p.utilization)).collect();
            println!(
                "{:<18} {:<10} {:>9.0} {:>9.0} {:>8.3} {:>6} {:>8.3} {:>19}",
                rname,
                aname,
                r.goodput_tps,
                r.throughput_tps,
                r.slo_attainment,
                r.shed,
                r.p99_latency_s,
                utils.join(" "),
            );
            results.insert((rname, aname), r);
        }
    }

    let rr = &results[&("round-robin", "admit-all")];
    let lo = &results[&("least-outstanding", "admit-all")];
    let gated = &results[&("least-outstanding", "deadline")];
    assert!(
        lo.goodput_tps > rr.goodput_tps,
        "work-normalized routing must lift mixed-fleet goodput"
    );
    assert!(
        gated.slo_attainment > lo.slo_attainment && gated.goodput_tps > lo.goodput_tps,
        "deadline admission must lift attainment and goodput under overload"
    );
    println!(
        "\nwork-normalized routing lifts goodput {:.0} → {:.0} tok/s (round-robin pegs the \
         L40S replicas while the A100s idle at {:.0}% utilization);",
        rr.goodput_tps,
        lo.goodput_tps,
        100.0 * rr.per_replica.iter().map(|p| p.utilization).fold(f64::INFINITY, f64::min),
    );
    println!(
        "deadline admission sheds {} infeasible requests to lift SLO attainment \
         {:.3} → {:.3} and goodput {:.0} → {:.0} tok/s.",
        gated.shed, lo.slo_attainment, gated.slo_attainment, lo.goodput_tps, gated.goodput_tps,
    );
}

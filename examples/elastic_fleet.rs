//! The control plane in one sitting: a diurnal tenant served three ways.
//!
//! A day-shaped arrival trace (near-idle trough, overloading crest) hits
//! a fleet of four A100s. The static minimum (one replica, three dark)
//! misses deadlines at the crest; the static maximum (all four always on)
//! makes every deadline but bills GPU-seconds through the trough; the
//! elastic fleet starts at one replica and lets a queue-pressure
//! autoscaler wake standbys through the same drain/restart machinery the
//! fault plans use — crest attainment at a fraction of the always-on bill.
//!
//! A second act shows the other control-plane verb: when one tenant's
//! pinned home saturates, the cluster copies the tenant's shared-prefix
//! KV pages over NVLink to an underloaded replica instead of shedding or
//! re-prefilling — the report prices the copy in bytes moved.
//!
//! ```text
//! cargo run --release --example elastic_fleet
//! ```

use qserve::gpusim::{GpuSpec, HostLink};
use qserve::model::ModelConfig;
use qserve::serve::cluster::{
    AutoscaleConfig, Cluster, LeastOutstanding, MigrationConfig, QueuePressureScaler,
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

    // Act 1 — the diurnal trace. 240 mixed-length requests whose rate
    // swings from 2 rps (trough) to 48 rps (crest) on a 20 s period; one
    // A100 handles the trough alone, the crest needs the whole fleet.
    let spec = WorkloadSpec::mixed(240, 20240603)
        .with_arrivals(ArrivalPattern::Diurnal {
            trough_rps: 2.0,
            peak_rps: 48.0,
            period_s: 20.0,
        })
        .with_slos(SloSpec::Cycle(vec![
            Slo::interactive(2.0, 8.0),
            Slo::standard(6.0, 20.0),
            Slo::best_effort(),
        ]));
    let serve = |mut cluster: Cluster| {
        cluster
            .serve_paged(
                &spec,
                || Box::new(MemoryAware::default()),
                Reservation::OnDemand,
                SchedOptions::default(),
            )
            .expect("serves")
    };
    let static_min = serve(Cluster::new(a100.clone(), 1, Box::new(LeastOutstanding)));
    let static_max = serve(Cluster::new(a100.clone(), 4, Box::new(LeastOutstanding)));
    let elastic = serve(Cluster::new(a100.clone(), 4, Box::new(LeastOutstanding)).with_autoscaler(
        AutoscaleConfig {
            policy: Box::new(QueuePressureScaler {
                min_replicas: 1,
                max_replicas: 4,
                scale_up_queue_s: 1.0,
                scale_down_queue_s: 0.25,
            }),
            interval_s: 1.0,
            initial_online: 1,
        },
    ));

    println!("diurnal trace: 240 requests, 2→48 rps over a 20 s period\n");
    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>9}",
        "fleet", "completed", "tok/s", "SLO att", "GPU-s"
    );
    for (name, r) in
        [("1xA100", &static_min), ("4xA100", &static_max), ("elastic", &elastic)]
    {
        println!(
            "{:<12} {:>9} {:>10.0} {:>9.3} {:>9.1}",
            name, r.completed, r.goodput_tps, r.slo_attainment, r.gpu_seconds
        );
    }

    assert_eq!(elastic.completed + elastic.shed, 240, "no request may be lost");
    assert!(
        elastic.slo_attainment > static_min.slo_attainment,
        "waking standbys at the crest must beat the static minimum"
    );
    assert!(
        elastic.gpu_seconds < static_max.gpu_seconds,
        "scaling to zero-pressure troughs must undercut the always-on bill"
    );

    // Act 2 — prefix migration. One tenant, a 4096-token system prompt,
    // requests arriving faster than the pinned home can drain: with a
    // MigrationConfig the control plane re-pins the tenant and copies its
    // prefix pages to the idle replica over NVLink.
    let tenant = WorkloadSpec::shared_prefix(1, 4096, 48, 20240603)
        .with_arrivals(ArrivalPattern::Poisson { rate_rps: 48.0 });
    let share = SchedOptions { share_prefixes: true, ..SchedOptions::default() };
    let mut pair = Cluster::new(a100.clone(), 2, Box::new(LeastOutstanding)).with_migration(
        MigrationConfig {
            saturation_queue_s: 0.5,
            relief_ratio: 0.5,
            migrate_pages: true,
            link: HostLink::nvlink_p2p(),
        },
    );
    let moved = pair
        .serve_paged(&tenant, || Box::new(MemoryAware::default()), Reservation::OnDemand, share)
        .expect("serves");

    assert!(moved.migrations > 0, "the saturated home must trigger a migration");
    assert_eq!(moved.completed + moved.shed, 48, "migration loses nothing");
    println!(
        "\nsaturated tenant: {} migration(s) moved {:.1} MB of prefix KV over NVLink; \
         {} requests finished at {:.0} tok/s",
        moved.migrations,
        // lint: allow(raw-cast) -- u64 byte count → f64 for MB display only
        moved.migrated_bytes as f64 / 1e6,
        moved.completed,
        moved.goodput_tps
    );
}

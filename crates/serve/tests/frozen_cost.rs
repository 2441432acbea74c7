//! Frozen step pricing: what a decode step, a prefill wave, a KV page and
//! the memory plan cost for every serving system on both GPUs and three
//! model shapes (dense MHA, dense GQA sharded four ways, sparse MoE),
//! recorded on the commit *before* the engine's two step-price functions
//! were folded into one and `SystemConfig`'s bit widths became derived from
//! its kernels (PR 21), to be reproduced bit for bit afterwards.
//!
//! The golden CSVs reach this code only through whole serving runs at the
//! paper's shape; the cells below price single steps at many shapes —
//! including the 70B TP-4 all-reduce term and the Mixtral expert routing no
//! golden touches — and record an unsupported or out-of-memory cell as such.
//!
//! A second table pins the Figure 2a split itself: the four fields of
//! `decode_layer_cost` (GEMM, attention, auxiliary kernels, all-reduce) over
//! the same decode batches, which the step totals sum away and the golden
//! `fig2a` CSV prints only to a tenth of a percent.

use qserve_gpusim::{GpuSpec, TpGroup};
use qserve_model::ModelConfig;
use qserve_serve::engine::EngineUnavailable;
use qserve_serve::memory::MemoryPlan;
use qserve_serve::{ServingEngine, SystemConfig};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Decode batches by per-sequence cached length: one sequence, a
/// homogeneous paper-shape batch, a ragged batch, a large batch past the
/// GEMM tile height, and the empty batch.
fn decode_batches() -> Vec<Vec<usize>> {
    vec![
        vec![1],
        vec![1024; 32],
        vec![256, 512, 1024, 2048, 17],
        (0..200).map(|i| 64 + 13 * i).collect(),
        vec![],
    ]
}

/// Prefill waves as `(new_tokens, past_tokens)` chunks: a whole prompt, a
/// ragged wave of whole prompts, a suffix over a shared prefix, one prompt
/// in running-sum chunks, a wave past the memo's dense range, the empty wave.
const PREFILL_WAVES: [&[(usize, usize)]; 6] = [
    &[(1024, 0)],
    &[(1024, 0), (512, 0), (77, 0)],
    &[(128, 896)],
    &[(256, 0), (256, 256), (256, 512), (256, 768)],
    &[(4096, 0), (1024, 3072), (64, 4096)],
    &[],
];

/// What one (system, GPU, model) cell prices to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// `ServingEngine::with_tp` refused the model.
    NotSupported,
    /// The weights do not fit the device.
    OutOfMemory,
    /// `(memory-plan digest, kv_page_bytes, step-price digest)`.
    Priced(u64, u64, u64),
}

fn price(gpu: &GpuSpec, model: &ModelConfig, tp: TpGroup, sys: SystemConfig) -> Cell {
    let plan = MemoryPlan::plan_tp(model, gpu, sys.weight_bits(), sys.kv_bits(), tp.ways);
    let e = match ServingEngine::with_tp(gpu.clone(), model.clone(), sys, tp) {
        Ok(e) => e,
        Err(EngineUnavailable::NotSupported) => return Cell::NotSupported,
        Err(EngineUnavailable::OutOfMemory) => {
            assert!(plan.is_none(), "an engine OOMs exactly when its plan does");
            return Cell::OutOfMemory;
        }
    };
    let plan = plan.expect("a built engine has a plan");
    assert_eq!(&plan, e.plan(), "the engine's plan is the one its system's bit widths give");
    let plan_digest = [
        plan.weight_bytes,
        plan.workspace_bytes,
        plan.kv_budget_bytes,
        plan.kv_bytes_per_token,
        plan.max_tokens,
        plan.max_batch(1536) as u64,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fold);

    let mut h = FNV_OFFSET;
    for lens in decode_batches() {
        h = fold(h, e.decode_step_latency_hetero(&lens).to_bits());
    }
    for wave in PREFILL_WAVES {
        h = fold(h, e.prefill_latency_chunked(wave).to_bits());
    }
    let speed = e.speed_profile();
    for v in [speed.decode_tps, speed.prefill_tps, speed.decode_step_s] {
        h = fold(h, v.to_bits());
    }
    // Asked twice: the second answer comes out of the engine's GEMM memo.
    h = fold(h, e.decode_step_latency_hetero(&[1024; 32]).to_bits());
    Cell::Priced(plan_digest, e.kv_page_bytes(), h)
}

/// The Figure 2a split of every decode batch above: each field of
/// `decode_layer_cost` (GEMM, attention, auxiliary kernels, all-reduce),
/// folded by its bits. `None` where the engine does not build (the step
/// table pins which cells those are).
fn layer_split(gpu: &GpuSpec, model: &ModelConfig, tp: TpGroup, sys: SystemConfig) -> Option<u64> {
    let e = ServingEngine::with_tp(gpu.clone(), model.clone(), sys, tp).ok()?;
    let mut h = FNV_OFFSET;
    for lens in decode_batches() {
        let c = e.decode_layer_cost(lens.len(), lens.iter().sum());
        for v in [c.gemm_s, c.attention_s, c.misc_s, c.all_reduce_s] {
            h = fold(h, v.to_bits());
        }
    }
    Some(h)
}

/// `(GPU, model, TP group)` columns; rows are `SystemConfig::all()`.
fn columns() -> Vec<(GpuSpec, ModelConfig, TpGroup)> {
    let mut out = Vec::new();
    for gpu in [GpuSpec::a100(), GpuSpec::l40s()] {
        out.push((gpu.clone(), ModelConfig::llama2_7b(), TpGroup::single()));
        out.push((gpu.clone(), ModelConfig::llama2_70b(), TpGroup::nvlink(4)));
        out.push((gpu, ModelConfig::mixtral_8x7b(), TpGroup::single()));
    }
    out
}

use Cell::{NotSupported as NS, OutOfMemory as OOM, Priced as P};

/// Recorded on commit b45bcf8. Rows: `SystemConfig::all()` (legend order).
/// Columns: A100 × {Llama-2-7B, Llama-2-70B at TP 4, Mixtral-8x7B}, then
/// L40S × the same three.
const FROZEN: [[Cell; 6]; 7] = [
    [
        P(0x97c7a2ef3ed58378, 262144, 0x162534383d5bd700),
        P(0x62ff8ad35b63b643, 16384, 0xe396e03ebdf20d2c),
        OOM,
        P(0x9236ec3f29e2edc5, 262144, 0x65d888ec0aef8697),
        P(0x5b937a512bf58dbe, 16384, 0x9715676cf916ce54),
        OOM,
    ],
    [
        P(0xfc32951718f91713, 135168, 0xfc619e4e56f25b3b),
        P(0xf3ad17bae1cbf5c6, 8448, 0xefb0e46a40c529be),
        P(0xcaaeb1f59fe7b645, 33792, 0x6c5f7df068f70680),
        P(0xeb1ade5b4e710712, 135168, 0x6600072444e37882),
        P(0x0c22d8025d59d4be, 8448, 0x6f3c0174de76ff38),
        P(0x8b2b7b86d1cab8f0, 33792, 0x4031c13e71fa38bc),
    ],
    [
        P(0x26190e769cd3c2a2, 135168, 0xef0e2bcf9069d2d1),
        P(0x50348b01e97eecf4, 8448, 0x3ef228b5b4d107a9),
        P(0x32fc8a4f826f4a3d, 33792, 0xd248683ac7b876c9),
        P(0xe5e913c862f81318, 135168, 0x4ac7c8e9892e0228),
        P(0xb9dcfe6605cd9983, 8448, 0x9604bda6e156bc52),
        OOM,
    ],
    [
        P(0x45359c7b838197b4, 69632, 0x997f6cb1b381cd15),
        NS,
        NS,
        P(0xe792babb386f395c, 69632, 0xf198eee98993658d),
        NS,
        NS,
    ],
    [
        P(0x45359c7b838197b4, 69632, 0xb68123c8038553b1),
        NS,
        NS,
        P(0xe792babb386f395c, 69632, 0x4c5e9984324b7ad2),
        NS,
        NS,
    ],
    [
        P(0x45359c7b838197b4, 69632, 0xc4e8a5ad77e232f0),
        P(0xfd053233361fb75a, 4352, 0xc08f058c546d740d),
        P(0xd00b11a4087b1d86, 17408, 0xe156ee2f4b064032),
        P(0xe792babb386f395c, 69632, 0xd66092c0b27f5b45),
        P(0x797ff2f51f8d849c, 4352, 0x18a21374aa9c4964),
        P(0x7caecf15f3a67f36, 17408, 0x2ab1c0d1244100f9),
    ],
    [
        P(0x45359c7b838197b4, 69632, 0x2f71397893cbe581),
        P(0xfd053233361fb75a, 4352, 0xf41ec8fb59298d7b),
        P(0xd00b11a4087b1d86, 17408, 0x5c7b2792fb3e44ce),
        P(0xe792babb386f395c, 69632, 0x7abe329e591c9cf1),
        P(0x797ff2f51f8d849c, 4352, 0x51c492f6fea1fe18),
        P(0x7caecf15f3a67f36, 17408, 0xb7669817997e8d46),
    ],
];

#[test]
fn step_prices_reproduce_the_bits_frozen_before_the_rewrite() {
    let columns = columns();
    let actual: Vec<Vec<Cell>> = SystemConfig::all()
        .into_iter()
        .map(|sys| columns.iter().map(|(gpu, model, tp)| price(gpu, model, *tp, sys)).collect())
        .collect();
    if actual != FROZEN {
        for row in &actual {
            eprintln!("    [");
            for cell in row {
                match cell {
                    NS => eprintln!("        NS,"),
                    OOM => eprintln!("        OOM,"),
                    P(plan, page, step) => {
                        eprintln!("        P({plan:#018x}, {page}, {step:#018x}),");
                    }
                }
            }
            eprintln!("    ],");
        }
    }
    for (r, sys) in SystemConfig::all().into_iter().enumerate() {
        for (c, (gpu, model, tp)) in columns.iter().enumerate() {
            assert_eq!(
                actual[r][c], FROZEN[r][c],
                "{} serving {} on {}×{} drifted from its frozen price",
                sys.name(), model.name, tp.ways, gpu.name
            );
        }
    }
    // The table is only worth freezing if it reaches the branches it claims.
    let all = SystemConfig::all();
    let row = |sys| all.iter().position(|&s| s == sys).expect("listed");
    assert_eq!(FROZEN[row(SystemConfig::AtomW4A4)][1], NS, "Atom serves Llama-2-7B only");
    assert_eq!(FROZEN[row(SystemConfig::QuarotW4A4)][2], NS, "QuaRot rejects GQA and MoE");
    assert_eq!(FROZEN[row(SystemConfig::TrtFp16)][5], OOM, "FP16 Mixtral exceeds one L40S");
    assert!(matches!(FROZEN[row(SystemConfig::TrtFp16)][1], P(..)), "TP 4 rescues FP16 70B");
    assert!(matches!(FROZEN[row(SystemConfig::QServePerGroup)][5], P(..)));
}

/// Recorded on commit 360e5c6, before the engine's prices were folded into
/// one implementation behind its cost model. Same rows and columns as
/// `FROZEN`.
const FROZEN_SPLIT: [[Option<u64>; 6]; 7] = [
    [
        Some(0x4676941552884d56),
        Some(0xe593293f03d78e2c),
        None,
        Some(0x41c4bdcb39bbb2dd),
        Some(0x8c3d64a0f043b9d3),
        None,
    ],
    [
        Some(0x06095c667b5cfa5d),
        Some(0xe01511dcdee15303),
        Some(0x98b2900c4ae9bfc6),
        Some(0xe1a6109add46cca2),
        Some(0x8fb67c8b078a12f1),
        Some(0x31403f4fddce23f0),
    ],
    [
        Some(0xdb36cea611bdf8f4),
        Some(0xa804601f7cf9f582),
        Some(0x0c4cf9eeca96b80b),
        Some(0x2f91d13c2203ca0f),
        Some(0x2b2cc49b6394e558),
        None,
    ],
    [
        Some(0xfd5b0d969f38bbda),
        None,
        None,
        Some(0x8221cdf937993f42),
        None,
        None,
    ],
    [
        Some(0x364e7eae5f7c4aa3),
        None,
        None,
        Some(0x8221cdf937993f42),
        None,
        None,
    ],
    [
        Some(0x50f46c1362385f8e),
        Some(0x094b44e6de3a6785),
        Some(0xb5aa461ff38759b8),
        Some(0x9564d3dccbedfe4e),
        Some(0x3d618919c2ef3af0),
        Some(0x708149f71132d26c),
    ],
    [
        Some(0x1f4619398f0730a4),
        Some(0x73140a0105e4484e),
        Some(0x0e8a6a1896fca40e),
        Some(0x43a9d7f52670be9f),
        Some(0x2ddebc0a585f2c69),
        Some(0x23abdd97c4be15b2),
    ],
];

#[test]
fn layer_splits_reproduce_the_bits_frozen_before_the_rewrite() {
    let columns = columns();
    let actual: Vec<Vec<Option<u64>>> = SystemConfig::all()
        .into_iter()
        .map(|sys| columns.iter().map(|(gpu, model, tp)| layer_split(gpu, model, *tp, sys)).collect())
        .collect();
    if actual != FROZEN_SPLIT {
        for row in &actual {
            let cells: Vec<String> = row
                .iter()
                .map(|c| c.map_or("None".to_string(), |h| format!("Some({h:#018x})")))
                .collect();
            eprintln!("    [\n        {},\n    ],", cells.join(",\n        "));
        }
    }
    for (r, sys) in SystemConfig::all().into_iter().enumerate() {
        for (c, (gpu, model, tp)) in columns.iter().enumerate() {
            assert_eq!(
                actual[r][c], FROZEN_SPLIT[r][c],
                "{} serving {} on {}×{} drifted from its frozen layer split",
                sys.name(), model.name, tp.ways, gpu.name
            );
            assert_eq!(
                actual[r][c].is_some(),
                matches!(FROZEN[r][c], P(..)),
                "the split and step tables agree on which cells build"
            );
        }
    }
}

//! Deployment is a fixed point of the offline pipeline's speed work.
//!
//! The digests below were recorded by running this file on the commit
//! before the register-tiled `matmul_nt`, the branch-free rounding and the
//! one-pass fake-quant searches landed. They cover everything
//! `quantize_block` hands to the serving stack — packed codes, group
//! parameters, channel scales, the clip ratio each layer's search chose and
//! the bits of every fake weight — on the model the `func_serve` benchmark
//! workload deploys (hidden 128, two layers, 64 calibration tokens), so a
//! change to any primitive under the pipeline that moves a single rounding
//! fails here rather than in a downstream accuracy band.

use qserve_core::pack::PackedInt4;
use qserve_core::pipeline::{
    quantize_block, DeployedWeight, QoqConfig, QuantizedBlock, WeightGranularity,
};
use qserve_model::config::ModelConfig;
use qserve_model::forward::collect_calibration;
use qserve_model::synth::{SynthesisOptions, SyntheticModel};
use qserve_quant::matrixq::{fake_quant_clipped, QuantizedMatrix};
use qserve_quant::{Granularity, QuantSpec};
use qserve_tensor::rng::TensorRng;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.u32(v.to_bits());
        }
    }
}

fn digest_words<'a>(h: &mut Fnv, rows: impl Iterator<Item = &'a [PackedInt4]>) {
    for word in rows.flatten() {
        word.regs.iter().for_each(|&r| h.u32(r));
    }
}

fn digest_block(h: &mut Fnv, qb: &QuantizedBlock) {
    for (name, dep) in &qb.deployed {
        h.bytes(name.as_bytes());
        match dep {
            DeployedWeight::Progressive(w) => {
                digest_words(h, (0..w.n()).map(|row| w.packed_row(row)));
                for p in w.group_params() {
                    h.bytes(&[p.scale, p.zero]);
                }
                h.f32s(w.channel_scales());
            }
            DeployedWeight::PerChannel(w) => {
                digest_words(h, (0..w.n()).map(|row| w.packed_row(row)));
                h.bytes(w.zeros());
                h.f32s(w.scales());
            }
        }
    }
    for r in &qb.reports {
        h.u32(r.clip_alpha.to_bits());
    }
    for (_, w) in qb.fake.layers() {
        h.f32s(w.as_slice());
    }
}

/// Digest of the whole `func_serve` deployment under `granularity`.
fn deployment_digest(granularity: WeightGranularity) -> u64 {
    let config = SyntheticModel::reduced_config(&ModelConfig::llama2_7b(), 128, 2);
    let model = SyntheticModel::generate(config, SynthesisOptions::default());
    let tokens = TensorRng::seed(1).token_sequence(64, model.config.vocab);
    let calib = collect_calibration(&model, &tokens);
    let cfg = match granularity {
        WeightGranularity::PerGroup(_) => QoqConfig {
            weight_granularity: granularity,
            ..QoqConfig::w4a8kv4_g128()
        },
        WeightGranularity::PerChannel => QoqConfig::w4a8kv4_per_channel(),
    };
    let mut h = Fnv::new();
    for (block, x) in model.blocks.iter().zip(&calib) {
        digest_block(&mut h, &quantize_block(block, x, &cfg));
    }
    h.0
}

#[test]
fn per_group_deployment_is_bit_identical_to_the_recorded_parent() {
    assert_eq!(
        deployment_digest(WeightGranularity::PerGroup(32)),
        PER_GROUP_DIGEST,
        "a deployed bit moved under W4A8KV4 g32"
    );
}

#[test]
fn per_channel_deployment_is_bit_identical_to_the_recorded_parent() {
    assert_eq!(
        deployment_digest(WeightGranularity::PerChannel),
        PER_CHANNEL_DIGEST,
        "a deployed bit moved under per-channel W4A8KV4"
    );
}

const PER_GROUP_DIGEST: u64 = 0x7678_fba5_ce31_77fc;
const PER_CHANNEL_DIGEST: u64 = 0x8f12_33dc_6fd5_f94f;

#[test]
fn one_pass_fake_quant_equals_quantize_then_dequantize_bit_for_bit() {
    let mut rng = TensorRng::seed(14);
    let mut m = rng.heavy_tailed(12, 64, 0.05, 0.02, 8.0);
    // A dead row, a dead group and a one-sided group: the params edge cases.
    m.row_mut(3).fill(0.0);
    m.row_mut(5)[16..32].fill(0.0);
    m.row_mut(7)[..16].iter_mut().for_each(|v| *v = v.abs());
    let granularities = [
        Granularity::PerTensor,
        Granularity::PerRow,
        Granularity::PerGroup { group_size: 16 },
    ];
    for g in granularities {
        let specs = [
            QuantSpec::int8_symmetric(g),
            QuantSpec::int8_protective(g),
            QuantSpec::int4_symmetric(g),
            QuantSpec::uint4_asymmetric(g),
        ];
        for spec in specs {
            for alpha in [1.0, 0.85, 0.5] {
                let one_pass = fake_quant_clipped(&m, spec, alpha);
                let two_pass = QuantizedMatrix::quantize_clipped(&m, spec, alpha).dequantize();
                assert_eq!(one_pass.shape(), two_pass.shape());
                for (i, (a, b)) in one_pass
                    .as_slice()
                    .iter()
                    .zip(two_pass.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "element {i} differs for {spec:?} at alpha {alpha}"
                    );
                }
            }
        }
    }
}

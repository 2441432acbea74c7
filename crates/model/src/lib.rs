//! Transformer model substrate for the QServe reproduction.
//!
//! Two halves:
//!
//! * **Full-size shape metadata** ([`config`]): exact architectural
//!   dimensions of the eight models the paper serves (Table 4) plus the
//!   accuracy-table models (Table 2), used by the serving simulator for
//!   memory budgets and kernel shapes.
//! * **Reduced-scale executable models** ([`synth`], [`forward`], [`eval`]):
//!   synthetic transformers with the outlier pathologies of real LLMs,
//!   small enough to run a real forward pass, used for the accuracy
//!   experiments (Tables 2/3/5, Figure 16). The real checkpoints are
//!   unavailable offline; the README's "What is synthetic here" records
//!   the substitution.

pub mod config;
pub mod eval;
pub mod forward;
pub mod synth;

pub use config::ModelConfig;
pub use synth::SyntheticModel;

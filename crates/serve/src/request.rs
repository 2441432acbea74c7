//! Serving requests: per-request lifecycle state and heterogeneous workload
//! generation.
//!
//! The paper benchmarks one fixed shape (1024 in / 512 out, §6.3), but a
//! serving estimate is only as good as its workload model: real traffic mixes
//! short chat turns with long-document prompts and arrives over time. This
//! module gives every request its own lengths and arrival time, and
//! [`WorkloadSpec`] generates whole workloads from seeded distributions
//! (built on `qserve_tensor::rng`, so same seed ⇒ same workload, bit for
//! bit).

use qserve_tensor::rng::TensorRng;

/// Identifies one serving request across the scheduler, cache and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Priority tier of a request — what load shedding protects first.
///
/// Tiers order by how *expendable* a request is: an admission policy under
/// pressure sheds [`Tier::Batch`] first, [`Tier::Standard`] next, and
/// [`Tier::Interactive`] only as a last resort (or never).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Latency-critical interactive traffic — shed last.
    Interactive,
    /// The default tier for unremarkable traffic.
    Standard,
    /// Best-effort background work — shed first under pressure.
    Batch,
}

impl Tier {
    /// Every tier, most- to least-protected (index == [`Tier::index`]).
    pub const ALL: [Tier; 3] = [Tier::Interactive, Tier::Standard, Tier::Batch];

    /// Dense index for per-tier accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::Interactive => 0,
            Tier::Standard => 1,
            Tier::Batch => 2,
        }
    }
}

/// Per-request service-level objective: optional deadlines plus a priority
/// tier. The default (`Standard`, no deadlines) is always "met", so SLO-free
/// workloads report goodput == throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Priority tier (drives load shedding, not scheduling order).
    pub tier: Tier,
    /// Time-to-first-token deadline (arrival → first output token), seconds.
    pub ttft_deadline_s: Option<f64>,
    /// End-to-end latency deadline (arrival → last token), seconds.
    pub latency_deadline_s: Option<f64>,
}

impl Default for Slo {
    fn default() -> Self {
        Self {
            tier: Tier::Standard,
            ttft_deadline_s: None,
            latency_deadline_s: None,
        }
    }
}

impl Slo {
    /// An interactive-tier SLO with both deadlines set.
    ///
    /// # Panics
    /// Panics unless both deadlines are finite and positive.
    pub fn interactive(ttft_deadline_s: f64, latency_deadline_s: f64) -> Self {
        Self::with_tier(Tier::Interactive, ttft_deadline_s, latency_deadline_s)
    }

    /// A standard-tier SLO with both deadlines set.
    ///
    /// # Panics
    /// Panics unless both deadlines are finite and positive.
    pub fn standard(ttft_deadline_s: f64, latency_deadline_s: f64) -> Self {
        Self::with_tier(Tier::Standard, ttft_deadline_s, latency_deadline_s)
    }

    fn with_tier(tier: Tier, ttft_deadline_s: f64, latency_deadline_s: f64) -> Self {
        let slo = Self {
            tier,
            ttft_deadline_s: Some(ttft_deadline_s),
            latency_deadline_s: Some(latency_deadline_s),
        };
        slo.assert_deadlines();
        slo
    }

    /// Every deadline this SLO carries is finite and positive — so a
    /// [`Request`] can store "no deadline" as +∞ without aliasing one.
    fn assert_deadlines(&self) {
        for d in [self.ttft_deadline_s, self.latency_deadline_s].into_iter().flatten() {
            assert!(d.is_finite() && d > 0.0, "an SLO deadline must be finite and positive, not {d}");
        }
    }

    /// Batch-tier best effort: no deadlines, shed first under pressure.
    pub fn best_effort() -> Self {
        Self {
            tier: Tier::Batch,
            ttft_deadline_s: None,
            latency_deadline_s: None,
        }
    }

    /// Whether the SLO carries any deadline at all.
    pub fn has_deadline(&self) -> bool {
        self.ttft_deadline_s.is_some() || self.latency_deadline_s.is_some()
    }

    /// Whether the given achieved `(ttft_s, latency_s)` pair satisfies
    /// every deadline this SLO carries — the one deadline-satisfaction
    /// predicate shared by admission feasibility ([`crate::cluster`]) and
    /// goodput/attainment accounting
    /// ([`crate::scheduler::FinishedRequest::met_slo`]).
    pub fn met_by(&self, ttft_s: f64, latency_s: f64) -> bool {
        self.ttft_deadline_s.is_none_or(|d| ttft_s <= d)
            && self.latency_deadline_s.is_none_or(|d| latency_s <= d)
    }

    /// Worst `achieved ÷ deadline` ratio of `(ttft_s, latency_s)` over the
    /// deadlines this SLO carries (≤ 1 ⇔ met; 0 with none) — the one
    /// spelling shared by retirement
    /// ([`crate::scheduler::FinishedRequest::slo_ratio`]) and deadline-aware
    /// routing's estimate of a replica ([`crate::cluster::DeadlineAware`]).
    pub(crate) fn worst_ratio(&self, ttft_s: f64, latency_s: f64) -> f64 {
        let mut worst = 0.0f64;
        if let Some(d) = self.ttft_deadline_s {
            worst = worst.max(ttft_s / d);
        }
        if let Some(d) = self.latency_deadline_s {
            worst = worst.max(latency_s / d);
        }
        worst
    }
}

/// Where a request is in its life. There is no finished state: at its last
/// token a request leaves the scheduler and a
/// [`crate::scheduler::FinishedRequest`] record stays.
///
/// ```text
/// Queued ──admit──▶ Running ──last token──▶ (retired: a record remains)
///    ▲               │ ▲ │
///    └── preempt ────┘ │ └── swap out ──▶ Swapped  (private pages on the host tier)
///    (recompute)       └──── swap in ────────┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Waiting for admission (has arrived or will arrive later) — also a
    /// recompute-preempted request, whose prompt *and* already-generated
    /// tokens are recomputed on re-admission (vLLM-style).
    Queued,
    /// Admitted: prefilled and decoding.
    Running,
    /// Evicted under memory pressure with its private KV pages spilled to
    /// the host tier; on re-admission the pages are swapped back at link
    /// cost instead of recomputed, so `prefilled` survives.
    Swapped,
}

/// One serving request with its lifecycle accounting. `Copy`, so retirement
/// moves each run of surviving residents down as one block.
///
/// Every pending and running request is one of these, so its size is what
/// a backlog costs (README, "What a request costs in memory"): identity,
/// times and lifecycle state are plain fields, while the token counts, the
/// sharing group, the first-token stamp and the SLO are stored narrow and
/// read through accessors that return their natural types — `usize`
/// counts, an `Option<f64>` first token, a [`Slo`]. Counts are `u32`
/// ([`Request::new`] refuses a peak that does not fit), the group a `u32`
/// ([`Request::with_prefix`] refuses a wider one), and the three optional
/// times plain `f64`s with non-NaN sentinels — −∞ for "no token yet", +∞
/// for "no deadline" — so `PartialEq` stays reflexive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stable identity (also used as the KV-cache [`crate::SequenceId`]).
    pub id: RequestId,
    /// When the request becomes available to the scheduler, seconds.
    pub arrival_s: f64,
    /// When the request becomes *eligible* for admission, seconds. Equals
    /// `arrival_s` at birth; a replica crash re-stamps it to the crash
    /// time so the requeued request cannot be scheduled before the
    /// failure that displaced it. Latency and TTFT still measure from
    /// `arrival_s` — the user started waiting then.
    pub ready_s: f64,
    /// −∞ until stamped.
    first_token_s: f64,
    /// The SLO, read back by [`Request::slo`]: its deadlines (+∞ for none)
    /// and its tier.
    ttft_deadline_s: f64,
    latency_deadline_s: f64,
    tier: Tier,
    // Each read back as `usize` (`Option<u64>`) by its namesake accessor.
    input_len: u32,
    output_len: u32,
    prefix_len: u32,
    generated: u32,
    prefilled: u32,
    prefix_group: Option<u32>,
    /// Lifecycle state.
    pub state: RequestState,
    /// Whether a crash ever requeued this request off a replica.
    pub requeued: bool,
}

/// A token count as a [`Request`] stores it.
fn narrow(count: usize) -> u32 {
    u32::try_from(count).expect("a request's token counts fit u32")
}

impl Request {
    /// A fresh queued request.
    ///
    /// # Panics
    /// Panics on an empty prompt or output, or a peak (`input_len +
    /// output_len`, the longest the sequence grows) above `u32::MAX`.
    pub fn new(id: RequestId, input_len: usize, output_len: usize, arrival_s: f64) -> Self {
        assert!(input_len > 0, "request needs at least one prompt token");
        assert!(output_len > 0, "request must generate at least one token");
        let peak = input_len.checked_add(output_len).and_then(|peak| u32::try_from(peak).ok());
        assert!(peak.is_some(), "request peak of {input_len} + {output_len} tokens exceeds u32::MAX");
        Self {
            id,
            arrival_s,
            ready_s: arrival_s,
            first_token_s: f64::NEG_INFINITY,
            ttft_deadline_s: f64::INFINITY,
            latency_deadline_s: f64::INFINITY,
            tier: Tier::Standard,
            input_len: narrow(input_len),
            output_len: narrow(output_len),
            prefix_len: 0,
            generated: 0,
            prefilled: 0,
            prefix_group: None,
            state: RequestState::Queued,
            requeued: false,
        }
    }

    /// Tags the request as opening with `prefix_len` tokens shared across
    /// `group` (builder-style).
    ///
    /// # Panics
    /// Panics if the prefix exceeds the prompt, or leaves no private suffix
    /// (a request must contribute at least one token of its own so the last
    /// prompt position always produces fresh logits), or if `group` is
    /// above `u32::MAX`.
    pub fn with_prefix(mut self, group: u64, prefix_len: usize) -> Self {
        assert!(prefix_len < self.input_len(), "prefix must leave a private suffix");
        let group = u32::try_from(group).unwrap_or_else(|_| panic!("prefix group {group} exceeds u32::MAX"));
        self.prefix_group = Some(group);
        self.prefix_len = narrow(prefix_len);
        self
    }

    /// Attaches a service-level objective (builder-style).
    ///
    /// # Panics
    /// Panics on a deadline that is not finite and positive (a struct
    /// literal can build one; [`Slo`]'s constructors cannot).
    pub fn with_slo(mut self, slo: Slo) -> Self {
        slo.assert_deadlines();
        self.tier = slo.tier;
        self.ttft_deadline_s = slo.ttft_deadline_s.unwrap_or(f64::INFINITY);
        self.latency_deadline_s = slo.latency_deadline_s.unwrap_or(f64::INFINITY);
        self
    }

    /// Prompt tokens.
    pub fn input_len(&self) -> usize {
        self.input_len as usize
    }

    /// Tokens to generate.
    pub fn output_len(&self) -> usize {
        self.output_len as usize
    }

    /// Prefix-sharing group this request belongs to (`None` = no sharing):
    /// requests of one group open with the same `prefix_len`-token prompt
    /// prefix, so a resident group member's KV pages can be forked instead
    /// of recomputed.
    pub fn prefix_group(&self) -> Option<u64> {
        self.prefix_group.map(u64::from)
    }

    /// Leading prompt tokens shared with the rest of the group (<
    /// `input_len`; 0 when `prefix_group` is `None`).
    pub fn prefix_len(&self) -> usize {
        self.prefix_len as usize
    }

    /// Service-level objective: deadlines and priority tier. Routers and
    /// admission policies read it; the scheduler core ignores it.
    pub fn slo(&self) -> Slo {
        let deadline = |d: f64| d.is_finite().then_some(d);
        Slo {
            tier: self.tier,
            ttft_deadline_s: deadline(self.ttft_deadline_s),
            latency_deadline_s: deadline(self.latency_deadline_s),
        }
    }

    /// Output tokens generated so far (survives preemption).
    pub fn generated(&self) -> usize {
        self.generated as usize
    }

    /// Tokens materialized in the KV cache this residency: aliased via
    /// prefix fork, computed by (possibly chunked) prefill, then one per
    /// decoded token — the sequence length (0 while queued). Decode starts
    /// once this reaches [`Request::prefill_len`].
    pub fn prefilled(&self) -> usize {
        self.prefilled as usize
    }

    /// Clock at which the first output token completed (TTFT marker).
    pub fn first_token_s(&self) -> Option<f64> {
        self.first_token_s.is_finite().then_some(self.first_token_s)
    }

    /// Sets the tokens materialized this residency: what admission aliased,
    /// prefill advanced to, or eviction wiped (0).
    pub fn set_prefilled(&mut self, tokens: usize) {
        self.prefilled = narrow(tokens);
        debug_assert!(self.prefilled() <= self.prefill_len(), "request {:?} prefilled past its prompt", self.id);
    }

    /// Records `tokens` decoded: each is one more output token and one more
    /// materialized token of context.
    pub fn decoded(&mut self, tokens: usize) {
        self.generated = narrow(self.generated() + tokens);
        self.prefilled = narrow(self.prefilled() + tokens);
        debug_assert!(self.generated <= self.output_len, "request {:?} decoded past its output", self.id);
        debug_assert!(self.prefilled() <= self.prefill_len(), "request {:?} prefilled past its prompt", self.id);
    }

    /// Stamps the clock at which the first output token completed — once
    /// per request, whatever its preemptions.
    pub fn stamp_first_token(&mut self, clock_s: f64) {
        debug_assert!(self.first_token_s().is_none(), "request {:?}: a first token stamped twice", self.id);
        debug_assert!(clock_s.is_finite(), "request {:?}: a first token at {clock_s}", self.id);
        self.first_token_s = clock_s;
    }

    /// Peak KV footprint in tokens (prompt + full output).
    pub fn peak_len(&self) -> usize {
        self.input_len() + self.output_len()
    }

    /// Output tokens still to generate.
    pub fn remaining(&self) -> usize {
        self.output_len() - self.generated()
    }

    /// Tokens to prefill on (re-)admission: the prompt plus any already
    /// generated tokens that must be recomputed after a preemption.
    pub fn prefill_len(&self) -> usize {
        self.input_len() + self.generated()
    }

    /// Prefill tokens still to materialize this residency (0 once decoding).
    pub fn prefill_remaining(&self) -> usize {
        self.prefill_len() - self.prefilled()
    }
}

/// A sequence-length distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Every request gets exactly this length (the paper's protocol).
    Fixed(usize),
    /// Uniform over the inclusive range `[lo, hi]`.
    Uniform {
        /// Smallest length.
        lo: usize,
        /// Largest length (inclusive).
        hi: usize,
    },
    /// A mixture of two uniform modes — short chat turns vs long-document
    /// requests, the classic bimodal production mix.
    Bimodal {
        /// Inclusive `[lo, hi]` of the short mode.
        short: (usize, usize),
        /// Inclusive `[lo, hi]` of the long mode.
        long: (usize, usize),
        /// Probability of drawing from the long mode.
        long_weight: f64,
    },
}

impl LengthDist {
    /// Draws one length.
    pub fn sample(&self, rng: &mut TensorRng) -> usize {
        match *self {
            LengthDist::Fixed(n) => n,
            LengthDist::Uniform { lo, hi } => rng.int_in(lo as i64, hi as i64) as usize,
            LengthDist::Bimodal { short, long, long_weight } => {
                let (lo, hi) = if f64::from(rng.next_f32()) < long_weight { long } else { short };
                rng.int_in(lo as i64, hi as i64) as usize
            }
        }
    }

    /// Inclusive `(min, max)` any sample can take.
    pub fn bounds(&self) -> (usize, usize) {
        match *self {
            LengthDist::Fixed(n) => (n, n),
            LengthDist::Uniform { lo, hi } => (lo, hi),
            LengthDist::Bimodal { short, long, .. } => {
                (short.0.min(long.0), short.1.max(long.1))
            }
        }
    }
}

/// When requests become available to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Everything at t=0 — the offline throughput benchmark.
    Batch,
    /// Deterministic spacing: request `i` arrives at `i / rate_rps`.
    Uniform {
        /// Offered load, requests per second.
        rate_rps: f64,
    },
    /// Poisson process: exponentially-distributed inter-arrival gaps at the
    /// given mean rate — bursty, like real traffic.
    Poisson {
        /// Mean offered load, requests per second.
        rate_rps: f64,
    },
    /// Non-homogeneous Poisson process with a sinusoidal day/night rate:
    /// `rate(t) = trough + (peak − trough) · ½(1 − cos(2πt/period))`, so
    /// the trace starts at the trough, crests at `period/2` and returns —
    /// the canonical autoscaler workload (burst the fleet must absorb,
    /// lull it should not pay for). Sampled by thinning a homogeneous
    /// `peak_rps` process, which keeps the draw-per-candidate structure
    /// deterministic in the seed.
    Diurnal {
        /// Off-peak offered load, requests per second.
        trough_rps: f64,
        /// On-peak offered load, requests per second.
        peak_rps: f64,
        /// Full trough→peak→trough cycle length, seconds.
        period_s: f64,
    },
}

/// How prompts overlap across the workload's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixSharing {
    /// Every prompt is independent (the classic benchmark assumption).
    None,
    /// Multi-tenant traffic: `groups` tenants, each with its own
    /// `prefix_len`-token system prompt that every request of the group
    /// opens with before its private suffix (drawn from the input
    /// distribution).
    Groups {
        /// Distinct shared system prompts.
        groups: usize,
        /// Tokens of each group's common prefix.
        prefix_len: usize,
    },
    /// Conversations of `turns` turns each: turn `t`'s prompt is the whole
    /// conversation so far plus a fresh user turn (drawn from the input
    /// distribution), so consecutive turns share an ever-growing prefix.
    MultiTurn {
        /// Concurrent conversations.
        conversations: usize,
        /// Turns per conversation.
        turns: usize,
    },
}

/// How a workload assigns SLOs to its requests.
///
/// Assignment is a pure function of the request *index* — it never draws
/// from the workload RNG — so attaching SLOs to an existing spec leaves its
/// sampled lengths, arrivals and sharing structure bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSpec {
    /// No deadlines; every request gets the default `Standard` tier.
    None,
    /// Request `i` takes `classes[i % classes.len()]` — a deterministic
    /// tier mix (e.g. interactive / standard / batch round-robin).
    Cycle(Vec<Slo>),
}

impl SloSpec {
    /// The SLO request `i` receives.
    ///
    /// # Panics
    /// Panics on an empty [`SloSpec::Cycle`] (checked here, not only in
    /// [`WorkloadSpec::with_slos`], because the `slo` field is public and
    /// struct-literal construction bypasses the builder).
    fn assign(&self, i: usize) -> Slo {
        match self {
            SloSpec::None => Slo::default(),
            SloSpec::Cycle(classes) => {
                assert!(!classes.is_empty(), "an SLO cycle needs at least one class");
                classes[i % classes.len()]
            }
        }
    }
}

/// A seeded heterogeneous workload: length distributions plus an arrival
/// pattern and a prompt-sharing structure. Sampling is deterministic in
/// `seed`.
///
/// # Example
/// ```
/// use qserve_serve::request::WorkloadSpec;
/// let a = WorkloadSpec::mixed(16, 7).sample();
/// let b = WorkloadSpec::mixed(16, 7).sample();
/// assert_eq!(a, b); // same seed, same workload
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Requests to generate.
    pub num_requests: usize,
    /// Prompt-length distribution (the *private suffix* length when
    /// `sharing` is not [`PrefixSharing::None`]).
    pub input: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Arrival pattern.
    pub arrival: ArrivalPattern,
    /// Prompt-sharing structure.
    pub sharing: PrefixSharing,
    /// SLO assignment (deadlines + tiers); [`SloSpec::None`] by default.
    pub slo: SloSpec,
    /// RNG seed for length/arrival sampling.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's §6.3 protocol: every request 1024 in / 512 out, offline.
    pub fn paper(num_requests: usize) -> Self {
        Self::fixed(1024, 512, num_requests)
    }

    /// A fixed-shape offline workload (generalizes [`WorkloadSpec::paper`]).
    pub fn fixed(input_len: usize, output_len: usize, num_requests: usize) -> Self {
        Self {
            num_requests,
            input: LengthDist::Fixed(input_len),
            output: LengthDist::Fixed(output_len),
            arrival: ArrivalPattern::Batch,
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed: 0,
        }
    }

    /// Short interactive chat turns: small prompts, small completions.
    pub fn chat(num_requests: usize, seed: u64) -> Self {
        Self {
            num_requests,
            input: LengthDist::Uniform { lo: 64, hi: 512 },
            output: LengthDist::Uniform { lo: 32, hi: 256 },
            arrival: ArrivalPattern::Batch,
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed,
        }
    }

    /// The production mix: mostly chat turns, a long-document tail that
    /// stresses memory-aware admission (prompts up to 4k).
    pub fn mixed(num_requests: usize, seed: u64) -> Self {
        Self {
            num_requests,
            input: LengthDist::Bimodal {
                short: (64, 512),
                long: (2048, 4096),
                long_weight: 0.2,
            },
            output: LengthDist::Bimodal {
                short: (32, 256),
                long: (512, 1024),
                long_weight: 0.2,
            },
            arrival: ArrivalPattern::Batch,
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed,
        }
    }

    /// Multi-tenant traffic: `groups` tenants, each with a
    /// `prefix_len`-token system prompt, chat-sized private suffixes and
    /// completions — the workload where prefix reuse pays.
    pub fn shared_prefix(
        groups: usize,
        prefix_len: usize,
        num_requests: usize,
        seed: u64,
    ) -> Self {
        assert!(groups > 0 && prefix_len > 0, "degenerate sharing spec");
        Self {
            num_requests,
            input: LengthDist::Uniform { lo: 32, hi: 128 },
            output: LengthDist::Uniform { lo: 32, hi: 128 },
            arrival: ArrivalPattern::Batch,
            sharing: PrefixSharing::Groups { groups, prefix_len },
            slo: SloSpec::None,
            seed,
        }
    }

    /// A production-scale stress trace: `num_requests` short-prompt,
    /// short-completion requests arriving as a Poisson process at
    /// `rate_rps`. Lengths are kept modest (64–256 in, 16–64 out) so
    /// million-request traces exercise the *serving core* — arrival
    /// handling, admission, routing, event ordering — rather than drowning
    /// in decode steps. This is the `mega_sweep` workload.
    pub fn production(num_requests: usize, rate_rps: f64, seed: u64) -> Self {
        assert!(rate_rps > 0.0, "a production trace needs a positive rate");
        Self {
            num_requests,
            input: LengthDist::Uniform { lo: 64, hi: 256 },
            output: LengthDist::Uniform { lo: 16, hi: 64 },
            arrival: ArrivalPattern::Poisson { rate_rps },
            sharing: PrefixSharing::None,
            slo: SloSpec::None,
            seed,
        }
    }

    /// Replaces the sharing structure (builder-style).
    ///
    /// # Panics
    /// Panics if a [`PrefixSharing::MultiTurn`] grid disagrees with
    /// `num_requests`.
    pub fn with_sharing(mut self, sharing: PrefixSharing) -> Self {
        if let PrefixSharing::MultiTurn { conversations, turns } = sharing {
            assert_eq!(
                conversations * turns,
                self.num_requests,
                "conversations × turns must equal num_requests"
            );
        }
        self.sharing = sharing;
        self
    }

    /// Replaces the arrival pattern (builder-style).
    pub fn with_arrivals(mut self, arrival: ArrivalPattern) -> Self {
        self.arrival = arrival;
        self
    }

    /// Replaces the SLO assignment (builder-style). Assignment is RNG-free,
    /// so the sampled lengths/arrivals are unchanged by this call.
    ///
    /// # Panics
    /// Panics on an empty [`SloSpec::Cycle`].
    pub fn with_slos(mut self, slo: SloSpec) -> Self {
        if let SloSpec::Cycle(classes) = &slo {
            assert!(!classes.is_empty(), "an SLO cycle needs at least one class");
        }
        self.slo = slo;
        self
    }

    /// Largest total prompt length (shared prefix + private suffix, plus the
    /// longest accumulated history for multi-turn conversations).
    fn max_input_len(&self) -> usize {
        let suffix_hi = self.input.bounds().1;
        match self.sharing {
            PrefixSharing::None => suffix_hi,
            PrefixSharing::Groups { prefix_len, .. } => prefix_len + suffix_hi,
            PrefixSharing::MultiTurn { turns, .. } => {
                (turns - 1) * (suffix_hi + self.output.bounds().1) + suffix_hi
            }
        }
    }

    /// Largest peak KV footprint (tokens) any sampled request can have —
    /// what conservative admission must size batches against.
    pub fn max_peak_len(&self) -> usize {
        self.max_input_len() + self.output.bounds().1
    }

    /// Smallest peak KV footprint any sampled request can have — the
    /// optimistic bound aggressive admission sizes concurrency against.
    /// Group sharing prepends its fixed prefix to every prompt; a
    /// conversation's first turn has no history, so multi-turn keeps the
    /// bare bound.
    pub fn min_peak_len(&self) -> usize {
        let base = self.input.bounds().0 + self.output.bounds().0;
        match self.sharing {
            PrefixSharing::Groups { prefix_len, .. } => prefix_len + base,
            _ => base,
        }
    }

    /// The whole workload in one vector: [`WorkloadSpec::arrivals`],
    /// collected. For callers that need the trace more than once or out of
    /// order (prompt synthesis, hand-built schedulers, tests); the cluster
    /// streams `arrivals()` instead and never holds the trace.
    pub fn sample(&self) -> Vec<Request> {
        self.arrivals().collect()
    }

    /// Streams the workload: `num_requests` requests with ids `0..n`, lengths
    /// drawn from the distributions, arrival times from the pattern and
    /// prefix groups from the sharing structure. One sequential RNG stream,
    /// deterministic in `seed`, emitted in `(arrival_s, id)` order — the
    /// front-door order the cluster consumes one `next()` at a time, so a
    /// trace costs the generator's state, not its length.
    ///
    /// # Panics
    /// Panics on a malformed spec (a non-positive rate, a trough above the
    /// peak, a multi-turn grid that disagrees with `num_requests`, zero
    /// sharing groups, an empty length range or one admitting 0) or one a
    /// [`Request`] cannot hold (a group id, or a longest request — multi-turn
    /// history included — above `u32::MAX`) — here, when called, not on the
    /// first `next()`.
    pub fn arrivals(&self) -> impl Iterator<Item = Request> + '_ {
        for (dist, what) in [(&self.input, "input"), (&self.output, "output")] {
            let ranges = match *dist {
                LengthDist::Fixed(n) => [(n, n); 2],
                LengthDist::Uniform { lo, hi } => [(lo, hi); 2],
                LengthDist::Bimodal { short, long, .. } => [short, long],
            };
            for (lo, hi) in ranges {
                assert!(lo <= hi, "{what} length range [{lo}, {hi}] is empty");
                assert!(lo > 0, "{what} lengths must be positive");
            }
        }
        match self.arrival {
            ArrivalPattern::Uniform { rate_rps } | ArrivalPattern::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "arrival rate must be positive");
            }
            ArrivalPattern::Diurnal { trough_rps, peak_rps, period_s } => {
                assert!(peak_rps > 0.0, "peak arrival rate must be positive");
                assert!(
                    (0.0..=peak_rps).contains(&trough_rps),
                    "trough rate must sit in [0, peak]"
                );
                assert!(period_s > 0.0, "diurnal period must be positive");
            }
            ArrivalPattern::Batch => {}
        }
        // The longest request any draw makes, and every group id, must fit
        // the `u32`s a `Request` holds them in.
        let (suffix_hi, output_hi) = (self.input.bounds().1, self.output.bounds().1);
        let fits = |tokens: Option<usize>| tokens.is_some_and(|t| u32::try_from(t).is_ok());
        match self.sharing {
            PrefixSharing::MultiTurn { conversations, turns } => {
                assert_eq!(
                    conversations * turns,
                    self.num_requests,
                    "conversations × turns must equal num_requests"
                );
                assert!(
                    u32::try_from(conversations.saturating_sub(1)).is_ok(),
                    "{conversations} conversations exceed u32 group ids"
                );
                let history = suffix_hi.checked_add(output_hi).and_then(|turn| turn.checked_mul(turns));
                assert!(
                    fits(history),
                    "multi-turn history of {turns} turns × ({suffix_hi} + {output_hi}) tokens exceeds u32::MAX"
                );
            }
            PrefixSharing::Groups { groups, prefix_len } => {
                assert!(groups > 0, "prefix sharing needs a group");
                assert!(u32::try_from(groups - 1).is_ok(), "{groups} sharing groups exceed u32 group ids");
                let peak = prefix_len.checked_add(suffix_hi).and_then(|p| p.checked_add(output_hi));
                assert!(
                    fits(peak),
                    "a {prefix_len}-token prefix + {suffix_hi} + {output_hi} tokens exceeds u32::MAX"
                );
            }
            PrefixSharing::None => assert!(
                fits(suffix_hi.checked_add(output_hi)),
                "lengths up to {suffix_hi} in + {output_hi} out exceed u32::MAX"
            ),
        }
        let mut rng = TensorRng::seed(self.seed);
        let mut clock = 0.0f64;
        // Accumulated (prompt + output) history per conversation.
        let mut history: Vec<usize> = match self.sharing {
            PrefixSharing::MultiTurn { conversations, .. } => vec![0; conversations],
            _ => Vec::new(),
        };
        (0..self.num_requests).map(move |i| {
            let suffix = self.input.sample(&mut rng);
            let output = self.output.sample(&mut rng);
            let sharing = match self.sharing {
                PrefixSharing::None => None,
                PrefixSharing::Groups { groups, prefix_len } => {
                    let g = rng.int_in(0, groups as i64 - 1) as u64;
                    Some((g, prefix_len, prefix_len + suffix))
                }
                PrefixSharing::MultiTurn { conversations, .. } => {
                    // Turn-major ids: conversation c's turns are requests
                    // c, c+conversations, … so turns arrive in order.
                    let c = i % conversations;
                    let prefix = history[c];
                    history[c] += suffix + output;
                    Some((c as u64, prefix, prefix + suffix))
                }
            };
            let arrival = match self.arrival {
                ArrivalPattern::Batch => 0.0,
                ArrivalPattern::Uniform { rate_rps } => i as f64 / rate_rps,
                ArrivalPattern::Poisson { rate_rps } => {
                    // Exponential gap via inverse CDF; clamp the uniform
                    // away from 0 so ln() stays finite.
                    let u = f64::from(rng.next_f32()).max(f64::EPSILON);
                    clock += -u.ln() / rate_rps;
                    clock
                }
                ArrivalPattern::Diurnal { trough_rps, peak_rps, period_s } => {
                    // Thinning (Lewis–Shedler): draw candidates from a
                    // homogeneous peak-rate process and keep each with
                    // probability rate(t)/peak — an exact sampler for
                    // the non-homogeneous process.
                    loop {
                        let u = f64::from(rng.next_f32()).max(f64::EPSILON);
                        clock += -u.ln() / peak_rps;
                        let phase = 2.0 * std::f64::consts::PI * clock / period_s;
                        let rate = trough_rps
                            + (peak_rps - trough_rps) * 0.5 * (1.0 - phase.cos());
                        if f64::from(rng.next_f32()) < rate / peak_rps {
                            break clock;
                        }
                    }
                }
            };
            let req = match sharing {
                None => Request::new(RequestId(i as u64), suffix, output, arrival),
                Some((group, prefix, total_input)) => {
                    Request::new(RequestId(i as u64), total_input, output, arrival)
                        .with_prefix(group, prefix)
                }
            };
            req.with_slo(self.slo.assign(i))
        })
    }

    /// Synthesizes a deterministic prompt per request over a `vocab`-token
    /// vocabulary, honoring the sharing structure: requests of one group
    /// open with identical prefix tokens, and a conversation's turns are
    /// literal prefixes of the next turn's prompt — so when the functional
    /// serving path forks a granted prefix from a resident sibling, the
    /// sibling's prompt really starts with those tokens.
    pub fn synth_prompts(
        &self,
        requests: &[Request],
        vocab: usize,
    ) -> std::collections::HashMap<RequestId, Vec<u32>> {
        let sub_seed = |salt: u64, idx: u64| -> u64 {
            (self.seed ^ salt)
                .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .rotate_left(17)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        };
        // One shared token stream per group/conversation, long enough for
        // the longest prompt that draws on it.
        let mut stream_len: std::collections::BTreeMap<u64, usize> =
            std::collections::BTreeMap::new();
        for r in requests {
            if let Some(g) = r.prefix_group() {
                let need = match self.sharing {
                    // Group prefixes are fixed-length; suffixes are private.
                    PrefixSharing::Groups { prefix_len, .. } => prefix_len,
                    // Conversation streams carry whole prompts.
                    _ => r.input_len(),
                };
                let e = stream_len.entry(g).or_insert(0);
                *e = (*e).max(need);
            }
        }
        let streams: std::collections::BTreeMap<u64, Vec<u32>> = stream_len
            .into_iter()
            .map(|(g, len)| {
                (g, TensorRng::seed(sub_seed(0x5052_4546, g)).token_sequence(len, vocab))
            })
            .collect();
        requests
            .iter()
            .map(|r| {
                let private = |len: usize| {
                    TensorRng::seed(sub_seed(0x5355_4646, r.id.0)).token_sequence(len, vocab)
                };
                let prompt = match (r.prefix_group(), self.sharing) {
                    (Some(g), PrefixSharing::Groups { prefix_len, .. }) => {
                        let mut p = streams[&g][..prefix_len].to_vec();
                        p.extend(private(r.input_len() - prefix_len));
                        p
                    }
                    (Some(g), PrefixSharing::MultiTurn { .. }) => {
                        streams[&g][..r.input_len()].to_vec()
                    }
                    _ => private(r.input_len()),
                };
                (r.id, prompt)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WorkloadSpec {
        /// Multi-turn conversations: each of `conversations` runs `turns`
        /// turns whose prompts accumulate the whole history, so consecutive
        /// turns share an ever-growing prefix.
        fn multi_turn(conversations: usize, turns: usize, seed: u64) -> Self {
            Self {
                num_requests: conversations * turns,
                input: LengthDist::Uniform { lo: 16, hi: 96 },
                output: LengthDist::Uniform { lo: 16, hi: 96 },
                arrival: ArrivalPattern::Batch,
                sharing: PrefixSharing::MultiTurn { conversations, turns },
                slo: SloSpec::None,
                seed,
            }
        }
    }

    #[test]
    fn lifecycle_accessors() {
        let mut r = Request::new(RequestId(3), 100, 20, 1.5);
        assert_eq!(r.peak_len(), 120);
        assert_eq!(r.remaining(), 20);
        assert_eq!(r.prefill_len(), 100);
        r.decoded(5);
        assert_eq!(r.remaining(), 15);
        assert_eq!(r.prefill_len(), 105); // recompute includes generated
    }

    /// Growth of the resident record is a visible diff: every pending and
    /// running request costs this many bytes (README, "What a request costs
    /// in memory").
    #[test]
    fn request_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Request>(), 80);
    }

    #[test]
    fn paper_spec_matches_protocol() {
        let reqs = WorkloadSpec::paper(8).sample();
        assert_eq!(reqs.len(), 8);
        for r in &reqs {
            assert_eq!((r.input_len(), r.output_len()), (1024, 512));
            assert_eq!(r.arrival_s, 0.0);
            assert_eq!(r.state, RequestState::Queued);
        }
    }

    #[test]
    fn sampled_lengths_respect_bounds() {
        let spec = WorkloadSpec::mixed(200, 11);
        let (ilo, ihi) = spec.input.bounds();
        let (olo, ohi) = spec.output.bounds();
        for r in spec.sample() {
            assert!((ilo..=ihi).contains(&r.input_len()));
            assert!((olo..=ohi).contains(&r.output_len()));
        }
        assert_eq!(spec.max_peak_len(), 4096 + 1024);
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let reqs = WorkloadSpec::mixed(200, 5).sample();
        assert!(reqs.iter().any(|r| r.input_len() <= 512), "short mode unused");
        assert!(reqs.iter().any(|r| r.input_len() >= 2048), "long mode unused");
    }

    #[test]
    fn shared_prefix_workload_structure() {
        let spec = WorkloadSpec::shared_prefix(4, 256, 64, 9);
        let reqs = spec.sample();
        assert_eq!(reqs.len(), 64);
        let mut groups_seen = std::collections::HashSet::new();
        for r in &reqs {
            let g = r.prefix_group().expect("every request belongs to a group");
            assert!(g < 4);
            groups_seen.insert(g);
            assert_eq!(r.prefix_len(), 256);
            assert!(r.input_len() > 256, "prefix + private suffix");
            assert!(r.input_len() <= 256 + 128);
        }
        assert!(groups_seen.len() > 1, "more than one tenant must appear");
        assert_eq!(spec.max_peak_len(), 256 + 128 + 128);
        // Same seed replays identically.
        assert_eq!(spec.sample(), reqs);
    }

    #[test]
    fn multi_turn_prefixes_accumulate_history() {
        let spec = WorkloadSpec::multi_turn(3, 4, 11);
        let reqs = spec.sample();
        assert_eq!(reqs.len(), 12);
        for c in 0..3usize {
            let turns: Vec<&Request> =
                (0..4).map(|t| &reqs[t * 3 + c]).collect();
            assert_eq!(turns[0].prefix_len(), 0, "first turn has no history");
            for w in turns.windows(2) {
                let (prev, next) = (w[0], w[1]);
                assert_eq!(prev.prefix_group(), next.prefix_group());
                assert_eq!(
                    next.prefix_len(),
                    prev.input_len() + prev.output_len(),
                    "turn history = whole previous context"
                );
                assert!(next.input_len() > next.prefix_len());
            }
        }
    }

    #[test]
    fn synth_prompts_share_real_token_prefixes() {
        let spec = WorkloadSpec::shared_prefix(2, 32, 12, 5);
        let reqs = spec.sample();
        let prompts = spec.synth_prompts(&reqs, 1000);
        for a in &reqs {
            for b in &reqs {
                let (pa, pb) = (&prompts[&a.id], &prompts[&b.id]);
                if a.id != b.id && a.prefix_group() == b.prefix_group() {
                    assert_eq!(pa[..32], pb[..32], "group prefix must be byte-equal");
                    assert_ne!(pa[32..], pb[32..], "suffixes are private");
                }
            }
            assert_eq!(prompts[&a.id].len(), a.input_len());
        }
        // Distinct groups get distinct prefixes.
        let (a, b) = (
            reqs.iter().find(|r| r.prefix_group() == Some(0)).unwrap(),
            reqs.iter().find(|r| r.prefix_group() == Some(1)).unwrap(),
        );
        assert_ne!(prompts[&a.id][..32], prompts[&b.id][..32]);
    }

    #[test]
    fn synth_prompts_multi_turn_literal_prefixes() {
        let spec = WorkloadSpec::multi_turn(2, 3, 7);
        let reqs = spec.sample();
        let prompts = spec.synth_prompts(&reqs, 500);
        for c in 0..2usize {
            for t in 0..2usize {
                let prev = &prompts[&reqs[t * 2 + c].id];
                let next = &prompts[&reqs[(t + 1) * 2 + c].id];
                assert_eq!(
                    *prev,
                    next[..prev.len()],
                    "turn {} prompt must be a literal prefix of turn {}",
                    t,
                    t + 1
                );
            }
        }
    }

    #[test]
    fn slo_cycle_assignment_is_deterministic_and_rng_free() {
        let base = WorkloadSpec::mixed(24, 11);
        let plain = base.sample();
        let classes =
            vec![Slo::interactive(1.0, 10.0), Slo::standard(4.0, 30.0), Slo::best_effort()];
        let slod = base.clone().with_slos(SloSpec::Cycle(classes.clone())).sample();
        assert_eq!(plain.len(), slod.len());
        for (a, b) in plain.iter().zip(&slod) {
            // Lengths and arrivals must be bit-identical; only the SLO moves.
            assert_eq!((a.input_len(), a.output_len()), (b.input_len(), b.output_len()));
            assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
            assert_eq!(a.slo(), Slo::default());
            assert_eq!(b.slo(), classes[b.id.0 as usize % 3]);
        }
    }

    #[test]
    fn met_by_checks_every_deadline() {
        let slo = Slo::interactive(1.0, 5.0);
        assert!(slo.met_by(0.5, 4.0));
        assert!(!slo.met_by(2.0, 4.0), "TTFT deadline missed");
        assert!(!slo.met_by(0.5, 6.0), "latency deadline missed");
        // Deadline-free SLOs are always met.
        assert!(Slo::best_effort().met_by(100.0, 1000.0));
        assert!(!Slo::best_effort().has_deadline());
        assert_eq!(Tier::ALL.map(Tier::index), [0, 1, 2]);
    }

    #[test]
    fn diurnal_arrivals_cluster_around_the_peak() {
        let period = 60.0;
        let pattern = ArrivalPattern::Diurnal {
            trough_rps: 1.0,
            peak_rps: 20.0,
            period_s: period,
        };
        let reqs = WorkloadSpec::chat(400, 13).with_arrivals(pattern).sample();
        let mut prev = -1.0;
        for r in &reqs {
            assert!(r.arrival_s >= 0.0);
            assert!(r.arrival_s >= prev, "arrivals must be non-decreasing");
            prev = r.arrival_s;
        }
        // The mid-cycle half-period around the crest (¼..¾ of each cycle)
        // must absorb far more than half the traffic: its mean rate is
        // trough + 0.85·(peak − trough) vs 0.15 on the off-peak half.
        let (mut on_peak, mut off_peak) = (0usize, 0usize);
        for r in &reqs {
            let frac = (r.arrival_s / period).fract();
            if (0.25..0.75).contains(&frac) {
                on_peak += 1;
            } else {
                off_peak += 1;
            }
        }
        assert!(
            on_peak > 2 * off_peak,
            "diurnal crest must dominate: {on_peak} on-peak vs {off_peak} off-peak"
        );
        // Deterministic in the seed.
        let replay = WorkloadSpec::chat(400, 13).with_arrivals(pattern).sample();
        assert_eq!(reqs, replay);
    }

    #[test]
    fn arrivals_monotone_and_positive() {
        for pattern in [
            ArrivalPattern::Uniform { rate_rps: 4.0 },
            ArrivalPattern::Poisson { rate_rps: 4.0 },
        ] {
            let reqs = WorkloadSpec::chat(50, 9).with_arrivals(pattern).sample();
            let mut prev = -1.0;
            for r in &reqs {
                assert!(r.arrival_s >= 0.0);
                assert!(r.arrival_s >= prev, "arrivals must be non-decreasing");
                prev = r.arrival_s;
            }
            // Mean inter-arrival should be in the vicinity of 1/rate.
            let span = reqs.last().unwrap().arrival_s;
            assert!(span > 49.0 / 4.0 * 0.5 && span < 49.0 / 4.0 * 2.0, "span {}", span);
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn arrivals_validates_the_spec_before_the_first_next() {
        let spec = WorkloadSpec::chat(4, 1).with_arrivals(ArrivalPattern::Poisson { rate_rps: 0.0 });
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "prefix sharing needs a group")]
    fn arrivals_refuses_zero_sharing_groups_before_the_first_next() {
        let sharing = PrefixSharing::Groups { groups: 0, prefix_len: 8 };
        let spec = WorkloadSpec { sharing, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "input length range [9, 8] is empty")]
    fn arrivals_refuses_an_empty_uniform_range_before_the_first_next() {
        let input = LengthDist::Uniform { lo: 9, hi: 8 };
        let spec = WorkloadSpec { input, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "output length range [64, 32] is empty")]
    fn arrivals_refuses_an_empty_bimodal_mode_before_the_first_next() {
        let output = LengthDist::Bimodal { short: (1, 8), long: (64, 32), long_weight: 0.5 };
        let spec = WorkloadSpec { output, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "output lengths must be positive")]
    fn arrivals_refuses_a_zero_length_bound_before_the_first_next() {
        let output = LengthDist::Uniform { lo: 0, hi: 4 };
        let spec = WorkloadSpec { output, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "lengths up to 4294967296 in + 256 out exceed u32::MAX")]
    fn arrivals_refuses_a_length_above_u32_before_the_first_next() {
        let input = LengthDist::Uniform { lo: 1, hi: 1 << 32 };
        let spec = WorkloadSpec { input, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "4294967297 sharing groups exceed u32 group ids")]
    fn arrivals_refuses_group_ids_above_u32_before_the_first_next() {
        let sharing = PrefixSharing::Groups { groups: (1 << 32) + 1, prefix_len: 8 };
        let spec = WorkloadSpec { sharing, ..WorkloadSpec::chat(4, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "multi-turn history of 16777216 turns × (512 + 256) tokens exceeds u32::MAX")]
    fn arrivals_refuses_a_multi_turn_history_above_u32_before_the_first_next() {
        let sharing = PrefixSharing::MultiTurn { conversations: 1, turns: 1 << 24 };
        let spec = WorkloadSpec { num_requests: 1 << 24, sharing, ..WorkloadSpec::chat(0, 1) };
        let _unpolled = spec.arrivals();
    }

    #[test]
    #[should_panic(expected = "request peak of 4294967295 + 1 tokens exceeds u32::MAX")]
    fn new_refuses_a_peak_above_u32() {
        let _ = Request::new(RequestId(0), u32::MAX.try_into().unwrap(), 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "prefix group 4294967296 exceeds u32::MAX")]
    fn with_prefix_refuses_a_group_above_u32() {
        let _ = Request::new(RequestId(0), 8, 1, 0.0).with_prefix(1 << 32, 4);
    }

    #[test]
    #[should_panic(expected = "an SLO deadline must be finite and positive, not inf")]
    fn slo_refuses_an_infinite_deadline() {
        let _ = Slo::interactive(f64::INFINITY, 10.0);
    }

    #[test]
    #[should_panic(expected = "an SLO deadline must be finite and positive, not 0")]
    fn slo_refuses_a_zero_deadline() {
        let _ = Slo::standard(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "an SLO deadline must be finite and positive, not NaN")]
    fn with_slo_refuses_a_literal_nan_deadline() {
        let slo = Slo { ttft_deadline_s: Some(f64::NAN), ..Slo::default() };
        let _ = Request::new(RequestId(0), 8, 1, 0.0).with_slo(slo);
    }

    #[test]
    fn narrow_fields_read_back_as_stored() {
        let slo = Slo { latency_deadline_s: Some(3.5), ..Slo::best_effort() };
        let mut r = Request::new(RequestId(9), 12, 5, 0.25).with_prefix(u32::MAX.into(), 11).with_slo(slo);
        assert_eq!((r.input_len(), r.output_len(), r.prefix_len()), (12, 5, 11));
        assert_eq!((r.prefix_group(), r.slo()), (Some(u64::from(u32::MAX)), slo));
        assert_eq!((r.generated(), r.prefilled(), r.first_token_s()), (0, 0, None));
        r.set_prefilled(12);
        r.stamp_first_token(0.0);
        r.decoded(2);
        assert_eq!((r.generated(), r.prefilled(), r.first_token_s()), (2, 14, Some(0.0)));
        assert_eq!(r, r, "sentinels keep equality reflexive");
    }

    qserve_tensor::props! {
        /// The postcondition the cluster driver relies on instead of
        /// sorting: every arrival pattern × sharing structure samples in
        /// `(arrival_s, id)` order, ids `0..n`, arrivals finite from `0.0` —
        /// and the stream consumed one `next()` at a time is that sample.
        fn sample_emits_front_door_order(rng, cases = 64) {
            let rate_rps = 0.5 + 40.0 * f64::from(rng.next_f32());
            let arrival = match rng.int_in(0, 3) {
                0 => ArrivalPattern::Batch,
                1 => ArrivalPattern::Uniform { rate_rps },
                2 => ArrivalPattern::Poisson { rate_rps },
                _ => ArrivalPattern::Diurnal {
                    trough_rps: rate_rps * f64::from(rng.next_f32()),
                    peak_rps: rate_rps,
                    period_s: 1.0 + 60.0 * f64::from(rng.next_f32()),
                },
            };
            let (conversations, turns) = (rng.int_in(1, 5) as usize, rng.int_in(1, 6) as usize);
            let sharing = match rng.int_in(0, 2) {
                0 => PrefixSharing::None,
                1 => PrefixSharing::Groups { groups: 3, prefix_len: rng.int_in(1, 40) as usize },
                _ => PrefixSharing::MultiTurn { conversations, turns },
            };
            let spec = WorkloadSpec {
                num_requests: conversations * turns,
                sharing,
                ..WorkloadSpec::chat(0, rng.next_u64()).with_arrivals(arrival)
            };
            let reqs = spec.sample();
            let mut stream = spec.arrivals();
            for (i, r) in reqs.iter().enumerate() {
                assert_eq!(stream.next().as_ref(), Some(r), "{:?} × {:?}: request {i}", arrival, sharing);
            }
            assert_eq!(stream.next(), None, "the stream outran the sample");
            assert_eq!(reqs.len(), spec.num_requests);
            assert!(reqs.iter().enumerate().all(|(i, r)| r.id == RequestId(i as u64)));
            assert!(reqs.iter().all(|r| r.arrival_s.is_finite() && r.arrival_s >= 0.0));
            assert!(
                reqs.windows(2).all(|w| (w[0].arrival_s, w[0].id) <= (w[1].arrival_s, w[1].id)),
                "{:?} × {:?} sampled out of (arrival_s, id) order", arrival, sharing
            );
        }
    }
}

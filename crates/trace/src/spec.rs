//! Workload populations: a seeded [`TraceSpec`] that expands into a
//! concrete, deterministic [`Workload`].
//!
//! Determinism is the whole point: every random draw comes from the
//! workspace's own xoshiro [`Prng`], each concern (arrivals, lengths,
//! prefix assignment, priorities, cancellation) on its own
//! [`fork`](Prng::fork)ed stream, so changing one knob never shifts the
//! draws of another. The same `(spec, seed)` therefore always produces
//! the same request sequence — on any host, forever — which is what makes
//! the replay driver's tick-level numbers comparable across machines.

use sparseinfer::sparse::request::Priority;
use sparseinfer::tensor::Prng;

/// When requests arrive, measured in scheduler ticks (the replay driver
/// submits every request whose arrival tick has been reached before each
/// [`tick`](sparseinfer::sparse::scheduler::Scheduler::tick)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson-like steady traffic: independent exponential inter-arrival
    /// gaps with the given mean. Offered load scales as `1 / mean`.
    Steady {
        /// Mean gap between consecutive arrivals, in ticks.
        mean_gap_ticks: f64,
    },
    /// Bursty traffic: arrivals land in groups of `burst_size` (the whole
    /// group on one tick), bursts separated by exponential gaps.
    Bursty {
        /// Requests per burst.
        burst_size: usize,
        /// Mean gap between consecutive burst starts, in ticks.
        mean_burst_gap_ticks: f64,
    },
    /// A steady background plus one flash crowd: `crowd_size` of the
    /// trace's requests all arrive on `crowd_at_tick`, every one of them
    /// carrying shared prefix 0 — the "everyone hits the same system
    /// prompt at once" stampede the prefix cache exists for.
    FlashCrowd {
        /// Mean inter-arrival gap of the background traffic, in ticks.
        background_gap_ticks: f64,
        /// The tick the crowd lands on.
        crowd_at_tick: u64,
        /// How many of the trace's requests belong to the crowd (clamped
        /// to the trace size).
        crowd_size: usize,
    },
}

/// Prompt and output length mix: a short/long bimodal prompt population
/// plus a uniform continuation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthMix {
    /// Inclusive token-count range of short prompts.
    pub short_prompt: (usize, usize),
    /// Inclusive token-count range of long prompts.
    pub long_prompt: (usize, usize),
    /// Fraction of requests drawing from the long range.
    pub long_fraction: f64,
    /// Inclusive range of `max_new` continuation budgets.
    pub max_new: (usize, usize),
}

impl Default for LengthMix {
    fn default() -> Self {
        Self {
            short_prompt: (2, 6),
            long_prompt: (12, 24),
            long_fraction: 0.25,
            max_new: (4, 16),
        }
    }
}

/// Shared-prefix population: a fraction of requests prepend one of a
/// small set of fixed system prompts, so a prefix-cache-enabled replay
/// has something to share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixMix {
    /// Number of distinct shared prefixes in the population.
    pub prefixes: usize,
    /// Token length of each shared prefix.
    pub prefix_tokens: usize,
    /// Fraction of requests that carry a shared prefix.
    pub shared_fraction: f64,
}

impl Default for PrefixMix {
    fn default() -> Self {
        Self {
            prefixes: 2,
            prefix_tokens: 16,
            shared_fraction: 0.5,
        }
    }
}

/// Priority class mix; the remainder after `high` and `batch` is
/// [`Priority::Normal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityMix {
    /// Fraction of [`Priority::High`] requests.
    pub high: f64,
    /// Fraction of [`Priority::Batch`] requests.
    pub batch: f64,
}

impl Default for PriorityMix {
    fn default() -> Self {
        Self {
            high: 0.1,
            batch: 0.2,
        }
    }
}

/// A seeded description of a workload population. Expand it with
/// [`generate`](TraceSpec::generate).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// RNG seed; the trace is a pure function of the spec including this.
    pub seed: u64,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Prompt/output length mix.
    pub lengths: LengthMix,
    /// Shared-prefix mix.
    pub prefixes: PrefixMix,
    /// Fraction of requests that cancel mid-stream (after a uniformly
    /// drawn 1..=3 emitted tokens).
    pub cancel_rate: f64,
    /// Priority class mix.
    pub priorities: PriorityMix,
    /// Exclusive upper bound on generated token ids (ids are drawn from
    /// `1..vocab`); keep it at or below the serving model's vocabulary.
    pub vocab: u32,
}

impl TraceSpec {
    /// Steady Poisson-like traffic with defaults for everything else.
    pub fn steady(seed: u64) -> Self {
        Self {
            seed,
            requests: 24,
            arrival: ArrivalProcess::Steady {
                mean_gap_ticks: 2.0,
            },
            lengths: LengthMix::default(),
            prefixes: PrefixMix::default(),
            cancel_rate: 0.1,
            priorities: PriorityMix::default(),
            vocab: 290,
        }
    }

    /// Bursty traffic: groups of 4 arriving together.
    pub fn bursty(seed: u64) -> Self {
        Self {
            arrival: ArrivalProcess::Bursty {
                burst_size: 4,
                mean_burst_gap_ticks: 8.0,
            },
            ..Self::steady(seed)
        }
    }

    /// Steady background plus a flash crowd of a third of the trace on
    /// one shared prefix.
    pub fn flash_crowd(seed: u64) -> Self {
        let base = Self::steady(seed);
        Self {
            arrival: ArrivalProcess::FlashCrowd {
                background_gap_ticks: 3.0,
                crowd_at_tick: 8,
                crowd_size: base.requests / 3,
            },
            ..base
        }
    }

    /// Sets the trace size (builder-style, for the presets).
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        if let ArrivalProcess::FlashCrowd { crowd_size, .. } = &mut self.arrival {
            *crowd_size = (*crowd_size).min(n);
        }
        self
    }

    /// Sets the token-id bound — match it to the serving model's
    /// vocabulary when the model is smaller than the default.
    pub fn vocab(mut self, vocab: u32) -> Self {
        self.vocab = vocab;
        self
    }

    /// Sets the mean arrival gap of a [`Steady`](ArrivalProcess::Steady)
    /// or [`Bursty`](ArrivalProcess::Bursty) process — the offered-load
    /// knob (smaller gap, higher load).
    pub fn mean_gap_ticks(mut self, gap: f64) -> Self {
        match &mut self.arrival {
            ArrivalProcess::Steady { mean_gap_ticks } => *mean_gap_ticks = gap,
            ArrivalProcess::Bursty {
                mean_burst_gap_ticks,
                ..
            } => *mean_burst_gap_ticks = gap,
            ArrivalProcess::FlashCrowd {
                background_gap_ticks,
                ..
            } => *background_gap_ticks = gap,
        }
        self
    }

    /// Expands the spec into its concrete request sequence.
    ///
    /// Requests come out sorted by arrival tick (ties in draw order), so
    /// the replay driver can submit them with a single cursor.
    pub fn generate(&self) -> Workload {
        let mut root = Prng::seed(self.seed);
        let mut arrivals_rng = root.fork(1);
        let mut lengths_rng = root.fork(2);
        let mut prefix_rng = root.fork(3);
        let mut priority_rng = root.fork(4);
        let mut cancel_rng = root.fork(5);
        let mut body_rng = root.fork(6);

        let (arrivals, crowd) = self.arrival_ticks(&mut arrivals_rng);

        let mut requests: Vec<TraceRequest> = Vec::with_capacity(self.requests);
        for (i, arrives_at_tick) in arrivals.into_iter().enumerate() {
            let in_crowd = crowd.contains(&i);
            let prefix_id = if in_crowd {
                // The stampede hammers one prefix by construction.
                Some(0)
            } else if self.prefixes.prefixes > 0 && prefix_rng.flip(self.prefixes.shared_fraction) {
                Some(prefix_rng.below(self.prefixes.prefixes))
            } else {
                // Burn the second draw anyway so the stream stays aligned
                // across flips — adding a prefix to one request must not
                // reshuffle every later request's assignment.
                let _ = prefix_rng.below(self.prefixes.prefixes.max(1));
                None
            };

            let long = lengths_rng.flip(self.lengths.long_fraction);
            let range = if long {
                self.lengths.long_prompt
            } else {
                self.lengths.short_prompt
            };
            let body_len = draw_range(&mut lengths_rng, range).max(1);
            let max_new = draw_range(&mut lengths_rng, self.lengths.max_new).max(1);

            let mut prompt = match prefix_id {
                Some(p) => self.prefix_tokens(p),
                None => Vec::new(),
            };
            prompt.extend(
                (0..body_len).map(|_| 1 + body_rng.below(self.vocab.max(2) as usize - 1) as u32),
            );

            // Both flips are drawn whatever the first says, so the stream
            // stays aligned, as with prefixes above.
            let high = priority_rng.flip(self.priorities.high);
            let batch = priority_rng.flip(self.priorities.batch);
            let priority = if high {
                Priority::High
            } else if batch {
                Priority::Batch
            } else {
                Priority::Normal
            };

            let cancel_after_tokens = if cancel_rng.flip(self.cancel_rate) {
                Some(1 + cancel_rng.below(3))
            } else {
                // Keep the cancel stream aligned, as with prefixes above.
                let _ = cancel_rng.below(3);
                None
            };

            requests.push(TraceRequest {
                arrives_at_tick,
                prompt,
                max_new,
                priority,
                cancel_after_tokens,
                prefix_id,
            });
        }

        requests.sort_by_key(|r| r.arrives_at_tick);
        Workload { requests }
    }

    /// The fixed token body of shared prefix `p` — a pure function of the
    /// prefix id, not of the RNG, so two traces over the same population
    /// share bytes even across seeds.
    pub fn prefix_tokens(&self, p: usize) -> Vec<u32> {
        let vocab = self.vocab.max(2) as usize;
        (0..self.prefixes.prefix_tokens)
            .map(|i| (1 + (p * 37 + i * 5) % (vocab - 1)) as u32)
            .collect()
    }

    /// Arrival tick of every request, plus the index set of flash-crowd
    /// members (empty for the other processes).
    fn arrival_ticks(&self, rng: &mut Prng) -> (Vec<u64>, Vec<usize>) {
        let mut ticks = Vec::with_capacity(self.requests);
        match self.arrival {
            ArrivalProcess::Steady { mean_gap_ticks } => {
                let mut t = 0.0f64;
                for _ in 0..self.requests {
                    t += exponential(rng, mean_gap_ticks);
                    ticks.push(t as u64);
                }
                (ticks, Vec::new())
            }
            ArrivalProcess::Bursty {
                burst_size,
                mean_burst_gap_ticks,
            } => {
                let burst = burst_size.max(1);
                let mut t = 0.0f64;
                while ticks.len() < self.requests {
                    let at = t as u64;
                    for _ in 0..burst.min(self.requests - ticks.len()) {
                        ticks.push(at);
                    }
                    t += exponential(rng, mean_burst_gap_ticks);
                }
                (ticks, Vec::new())
            }
            ArrivalProcess::FlashCrowd {
                background_gap_ticks,
                crowd_at_tick,
                crowd_size,
            } => {
                let crowd_size = crowd_size.min(self.requests);
                let background = self.requests - crowd_size;
                let mut t = 0.0f64;
                for _ in 0..background {
                    t += exponential(rng, background_gap_ticks);
                    ticks.push(t as u64);
                }
                let crowd_start = ticks.len();
                ticks.extend(std::iter::repeat_n(crowd_at_tick, crowd_size));
                (ticks, (crowd_start..crowd_start + crowd_size).collect())
            }
        }
    }
}

/// One concrete request of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Scheduler tick on which the request arrives.
    pub arrives_at_tick: u64,
    /// The full prompt (shared prefix, if any, plus the unique body).
    pub prompt: Vec<u32>,
    /// Continuation budget.
    pub max_new: usize,
    /// Admission class.
    pub priority: Priority,
    /// Cancel after this many emitted tokens (`None`: runs to finish).
    pub cancel_after_tokens: Option<usize>,
    /// Which shared prefix the prompt starts with, if any.
    pub prefix_id: Option<usize>,
}

/// A generated trace: the request sequence in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The requests, sorted by [`arrives_at_tick`](TraceRequest::arrives_at_tick).
    pub requests: Vec<TraceRequest>,
}

impl Workload {
    /// Total prompt tokens across the trace.
    pub fn prompt_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.prompt.len()).sum()
    }

    /// Total continuation budget across the trace.
    pub fn max_new_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.max_new).sum()
    }
}

/// One exponential inter-arrival gap with the given mean (the gap process
/// of a Poisson arrival stream).
fn exponential(rng: &mut Prng, mean: f64) -> f64 {
    let mean = mean.max(f64::MIN_POSITIVE);
    -mean * (1.0 - rng.uniform()).ln()
}

/// Uniform draw from an inclusive range (degenerate ranges allowed).
fn draw_range(rng: &mut Prng, (lo, hi): (usize, usize)) -> usize {
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    lo + rng.below(hi - lo + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_the_identical_sequence() {
        for spec in [
            TraceSpec::steady(11),
            TraceSpec::bursty(11),
            TraceSpec::flash_crowd(11),
        ] {
            let a = spec.generate();
            let b = spec.generate();
            assert_eq!(a, b, "{:?}", spec.arrival);
            assert_eq!(a.requests.len(), spec.requests);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceSpec::steady(1).generate();
        let b = TraceSpec::steady(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_sorted_and_bursts_cluster() {
        let w = TraceSpec::bursty(5).generate();
        let ticks: Vec<u64> = w.requests.iter().map(|r| r.arrives_at_tick).collect();
        assert!(ticks.windows(2).all(|p| p[0] <= p[1]), "sorted arrivals");
        // With bursts of 4, at least one tick must carry 4 arrivals.
        assert!(
            ticks.windows(4).any(|p| p[0] == p[3]),
            "bursty arrivals must cluster: {ticks:?}"
        );
    }

    #[test]
    fn flash_crowd_lands_together_on_one_prefix() {
        let spec = TraceSpec::flash_crowd(9);
        let ArrivalProcess::FlashCrowd {
            crowd_at_tick,
            crowd_size,
            ..
        } = spec.arrival
        else {
            unreachable!()
        };
        let w = spec.generate();
        let crowd: Vec<_> = w
            .requests
            .iter()
            .filter(|r| r.arrives_at_tick == crowd_at_tick && r.prefix_id == Some(0))
            .collect();
        assert!(
            crowd.len() >= crowd_size,
            "crowd of {crowd_size} must land on tick {crowd_at_tick} with prefix 0"
        );
        let prefix = spec.prefix_tokens(0);
        for r in crowd.iter().take(crowd_size) {
            assert!(r.prompt.starts_with(&prefix));
        }
    }

    #[test]
    fn knobs_shape_the_population() {
        let mut spec = TraceSpec::steady(3).requests(200);
        spec.cancel_rate = 0.0;
        spec.priorities = PriorityMix {
            high: 0.0,
            batch: 0.0,
        };
        spec.prefixes.shared_fraction = 1.0;
        let w = spec.generate();
        assert!(w.requests.iter().all(|r| r.cancel_after_tokens.is_none()));
        assert!(w.requests.iter().all(|r| r.priority == Priority::Normal));
        assert!(w.requests.iter().all(|r| r.prefix_id.is_some()));
        assert!(w
            .requests
            .iter()
            .all(|r| r.prompt.len() > spec.prefixes.prefix_tokens));

        spec.prefixes.shared_fraction = 0.0;
        let w = spec.generate();
        assert!(w.requests.iter().all(|r| r.prefix_id.is_none()));
    }

    #[test]
    fn token_ids_stay_inside_the_vocabulary() {
        let spec = TraceSpec::flash_crowd(13).requests(64);
        let w = spec.generate();
        for r in &w.requests {
            assert!(!r.prompt.is_empty());
            assert!(r.max_new >= 1);
            assert!(r.prompt.iter().all(|&t| t >= 1 && t < spec.vocab));
        }
    }
}

//! Workload generation for the benchmark harness.
//!
//! The paper's methodology (§3.3): worker threads continuously issue
//! requests; keys are drawn from a key space **twice the structure size**
//! (so equal insert/remove rates keep the size stationary); updates are
//! half inserts, half removes; distributions are uniform or Zipfian with
//! `s = 0.8` (§5.2).
//!
//! This crate provides:
//! * [`FastRng`] — a tiny xorshift64* generator (one multiply per draw, no
//!   allocation, seedable) for per-thread use inside measurement loops;
//! * [`KeyDist`] / [`KeySampler`] — uniform and Zipfian key distributions
//!   (the Zipf sampler uses a precomputed CDF and binary search);
//! * [`OpMix`] / [`Op`] — the paper's operation mix;
//! * [`TenantSampler`] — two-level (namespace × key) sampling for
//!   multi-tenant service traffic, canonically Zipf-over-Zipf;
//! * [`ChurnSchedule`] / [`ChurnPhase`] — a phased mix that cycles the key
//!   population through grow / steady / shrink phases, for exercising
//!   dynamically-resizing structures (the elastic hash table's
//!   migration machinery) rather than the paper's stationary sizes;
//! * [`OpenLoopSchedule`] — arrival-rate-driven request timing for the
//!   service front-end. The paper's harness is **closed-loop** (each worker
//!   issues, waits, issues again, so offered load adapts to service speed);
//!   an open-loop generator issues at its own rate regardless, which is the
//!   shape real front-ends see and the one where queueing delay shows up.

/// xorshift64* PRNG: fast enough to disappear inside a measurement loop,
/// deterministic from its seed.
#[derive(Clone, Debug)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    /// Seeded generator (seed 0 is mapped to a fixed non-zero constant).
    pub fn new(seed: u64) -> Self {
        FastRng {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)` (bound > 0).
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift mapping (bias far below measurement noise).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Key distribution specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Uniform over `[0, range)`.
    Uniform,
    /// Zipfian with exponent `s` over ranks `1..=range` (rank r has
    /// probability ∝ 1/r^s); the paper uses `s = 0.8`.
    Zipf {
        /// Skew exponent.
        s: f64,
    },
}

impl KeyDist {
    /// The paper's non-uniform workload (§5.2).
    pub const PAPER_ZIPF: KeyDist = KeyDist::Zipf { s: 0.8 };
}

/// A sampler for keys in `[0, range)` under a [`KeyDist`].
#[derive(Clone, Debug)]
pub struct KeySampler {
    range: u64,
    /// For Zipf: cumulative distribution over ranks (len == range).
    cdf: Option<Box<[f64]>>,
}

impl KeySampler {
    /// Build a sampler; Zipf precomputes an O(range) CDF table.
    pub fn new(dist: KeyDist, range: u64) -> Self {
        assert!(range > 0, "key range must be positive");
        match dist {
            KeyDist::Uniform => KeySampler { range, cdf: None },
            KeyDist::Zipf { s } => {
                let n = range as usize;
                let mut cdf = Vec::with_capacity(n);
                let mut acc = 0.0f64;
                for r in 1..=n {
                    acc += 1.0 / (r as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for c in cdf.iter_mut() {
                    *c /= total;
                }
                KeySampler {
                    range,
                    cdf: Some(cdf.into_boxed_slice()),
                }
            }
        }
    }

    /// Key range.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Draw a key in `[0, range)`.
    #[inline]
    pub fn sample(&self, rng: &mut FastRng) -> u64 {
        match &self.cdf {
            None => rng.bounded(self.range),
            Some(cdf) => {
                let u = rng.unit_f64();
                // First index with cdf[i] >= u.
                let idx = cdf.partition_point(|&c| c < u);
                idx.min(cdf.len() - 1) as u64
            }
        }
    }

    /// Per-key access probabilities (for the analytical model, Eq. 6).
    pub fn probabilities(&self) -> Vec<f64> {
        match &self.cdf {
            None => vec![1.0 / self.range as f64; self.range as usize],
            Some(cdf) => {
                let mut p = Vec::with_capacity(cdf.len());
                let mut prev = 0.0;
                for &c in cdf.iter() {
                    p.push(c - prev);
                    prev = c;
                }
                p
            }
        }
    }
}

/// One operation of the map interface: the paper's basic vocabulary
/// (§2.2) plus the compound vocabulary (upsert / CAS / counter RMW).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `get(k)`
    Get,
    /// `put(k, v)` — insert if absent
    Insert,
    /// `remove(k)`
    Remove,
    /// `upsert(k, v)` — insert-or-replace
    Upsert,
    /// `compare_swap(k, expected, new)` — value CAS
    Cas,
    /// `fetch_add(k, δ)` — atomic counter RMW
    FetchAdd,
}

/// Operation mix: `update_pct` percent basic updates (half inserts, half
/// removes — paper §3.3), plus optional compound shares (`upsert_pct`,
/// `cas_pct`, `fetch_add_pct`); the remainder is reads.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Percentage of operations that are basic updates (0–100), split half
    /// inserts, half removes.
    pub update_pct: u32,
    /// Percentage of operations that are upserts.
    pub upsert_pct: u32,
    /// Percentage of operations that are value compare-and-swaps.
    pub cas_pct: u32,
    /// Percentage of operations that are counter RMWs.
    pub fetch_add_pct: u32,
}

impl OpMix {
    /// The paper's mix: `update_pct` percent basic updates, the rest reads.
    pub fn updates(update_pct: u32) -> Self {
        Self::rmw(update_pct, 0, 0, 0)
    }

    /// A mix with explicit basic-update and compound shares (the remainder
    /// is reads); shares must sum to ≤ 100.
    pub fn rmw(update_pct: u32, upsert_pct: u32, cas_pct: u32, fetch_add_pct: u32) -> Self {
        assert!(
            update_pct + upsert_pct + cas_pct + fetch_add_pct <= 100,
            "op-mix shares must sum to at most 100%"
        );
        OpMix {
            update_pct,
            upsert_pct,
            cas_pct,
            fetch_add_pct,
        }
    }

    /// Preset: upsert-heavy traffic (50% upserts, 50% reads) — a cache
    /// being refreshed.
    pub fn mix_rmw_upsert_heavy() -> Self {
        Self::rmw(0, 50, 0, 0)
    }

    /// Preset: counter service (100% `fetch_add`).
    pub fn mix_rmw_counter() -> Self {
        Self::rmw(0, 0, 0, 100)
    }

    /// Draw the next operation.
    #[inline]
    pub fn sample(&self, rng: &mut FastRng) -> Op {
        let r = rng.bounded(200) as u32; // halves of a percent
        let mut edge = self.update_pct;
        if r < edge {
            return Op::Insert;
        }
        edge += self.update_pct;
        if r < edge {
            return Op::Remove;
        }
        edge += 2 * self.upsert_pct;
        if r < edge {
            return Op::Upsert;
        }
        edge += 2 * self.cas_pct;
        if r < edge {
            return Op::Cas;
        }
        edge += 2 * self.fetch_add_pct;
        if r < edge {
            return Op::FetchAdd;
        }
        Op::Get
    }
}

/// One operation of the priority-queue interface (`csds_pq`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PqOp {
    /// `push(priority, v)`
    Push,
    /// `pop_min()`
    PopMin,
    /// `peek_min()`
    PeekMin,
}

/// Operation mix for priority-queue workloads: `push_pct` percent pushes,
/// `pop_pct` percent pop-mins, the remainder peek-mins.
///
/// Unlike the map mixes, where keys spread contention across the structure,
/// every pop-min targets the head run — so the pop share directly dials the
/// hot-spot pressure the Lotan–Shavit mark CAS and the Pugh head locks
/// fight over. A mix with `push_pct > pop_pct` grows the queue over the
/// run; `pop_pct > push_pct` drains toward (and bounces off) empty.
#[derive(Clone, Copy, Debug)]
pub struct PqOpMix {
    /// Percentage of operations that are pushes (0–100).
    pub push_pct: u32,
    /// Percentage of operations that are pop-mins (0–100).
    pub pop_pct: u32,
}

impl PqOpMix {
    /// A mix with explicit push and pop shares (the remainder is peeks);
    /// shares must sum to ≤ 100.
    pub fn new(push_pct: u32, pop_pct: u32) -> Self {
        assert!(
            push_pct + pop_pct <= 100,
            "pq op-mix shares must sum to at most 100%"
        );
        PqOpMix { push_pct, pop_pct }
    }

    /// Preset: balanced scheduler traffic (45% push, 45% pop, 10% peek) —
    /// stationary queue size, sustained head contention.
    pub fn mixed() -> Self {
        Self::new(45, 45)
    }

    /// Draw the next operation.
    #[inline]
    pub fn sample(&self, rng: &mut FastRng) -> PqOp {
        let r = rng.bounded(100) as u32;
        if r < self.push_pct {
            PqOp::Push
        } else if r < self.push_pct + self.pop_pct {
            PqOp::PopMin
        } else {
            PqOp::PeekMin
        }
    }
}

/// A two-level sampler for multi-tenant traffic: *which tenant* an
/// operation targets is drawn from one distribution, *which key inside
/// that tenant* from another.
///
/// The interesting shape is Zipf-over-Zipf — a few tenants carry most of
/// the traffic and, within each, a few keys are hot — which is what a
/// namespace-routed front-end sees in practice: a handful of hot
/// namespaces that must stay cheap, plus a long tail of cold ones that
/// must not cost memory while idle. Namespace ids are offset by
/// [`base`](TenantSampler::base) so callers can keep id 0 (a service's
/// default namespace) out of the draw.
#[derive(Clone, Debug)]
pub struct TenantSampler {
    namespaces: KeySampler,
    keys: KeySampler,
    /// Smallest namespace id this sampler emits (ids span
    /// `[base, base + namespace_count)`).
    pub base: u64,
}

impl TenantSampler {
    /// A sampler over `ns_count` tenants (ids `base..base + ns_count`) with
    /// `key_range` keys each.
    pub fn new(
        ns_dist: KeyDist,
        ns_count: u64,
        key_dist: KeyDist,
        key_range: u64,
        base: u64,
    ) -> Self {
        TenantSampler {
            namespaces: KeySampler::new(ns_dist, ns_count),
            keys: KeySampler::new(key_dist, key_range),
            base,
        }
    }

    /// The canonical multi-tenant workload: the paper's Zipf (`s = 0.8`)
    /// at **both** levels, namespace ids starting at 1.
    pub fn zipf_over_zipf(ns_count: u64, key_range: u64) -> Self {
        Self::new(
            KeyDist::PAPER_ZIPF,
            ns_count,
            KeyDist::PAPER_ZIPF,
            key_range,
            1,
        )
    }

    /// Number of distinct tenants this sampler can emit.
    pub fn namespace_count(&self) -> u64 {
        self.namespaces.range()
    }

    /// Per-tenant key range.
    pub fn key_range(&self) -> u64 {
        self.keys.range()
    }

    /// Draw a `(namespace, key)` pair. Zipf rank 0 is the hottest tenant,
    /// so namespace `base` is the hottest id.
    #[inline]
    pub fn sample(&self, rng: &mut FastRng) -> (u64, u64) {
        (
            self.base + self.namespaces.sample(rng),
            self.keys.sample(rng),
        )
    }
}

/// Phase of a resize-churn workload (see [`ChurnSchedule`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnPhase {
    /// Population ramps up: updates are biased toward inserts.
    Grow,
    /// Stationary traffic: the configured steady [`OpMix`] applies.
    Steady,
    /// Population drains: updates are biased toward removes.
    Shrink,
}

/// A deterministic phase schedule that forces a structure's population to
/// grow, hold, and shrink, cycling — the workload shape that drives a
/// resizable structure through repeated migrations in both directions.
///
/// The paper's methodology keeps structure sizes stationary (equal
/// insert/remove rates over a fixed key space); a resize-churn run instead
/// cycles `Grow → Steady → Shrink → Steady` by operation index, so any
/// thread can derive the current phase from its own op counter with no
/// cross-thread coordination. During `Grow`/`Shrink` phases a fraction
/// [`CHURN_UPDATE_PCT`](ChurnSchedule::CHURN_UPDATE_PCT) of operations are
/// the biased update (the rest are reads); `Steady` phases use the mix the
/// caller supplies.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSchedule {
    /// Operations spent ramping the population up per cycle.
    pub grow_ops: u64,
    /// Operations of stationary traffic after each ramp (twice per cycle).
    pub steady_ops: u64,
    /// Operations spent draining the population per cycle.
    pub shrink_ops: u64,
}

impl ChurnSchedule {
    /// Update share of grow/shrink-phase operations, in percent. Biased
    /// high so a phase actually moves the population instead of reading it.
    pub const CHURN_UPDATE_PCT: u64 = 90;

    /// A schedule with the given phase lengths (each ≥ 1 op).
    pub fn new(grow_ops: u64, steady_ops: u64, shrink_ops: u64) -> Self {
        ChurnSchedule {
            grow_ops: grow_ops.max(1),
            steady_ops: steady_ops.max(1),
            shrink_ops: shrink_ops.max(1),
        }
    }

    /// Length of one full `Grow → Steady → Shrink → Steady` cycle.
    pub fn period(&self) -> u64 {
        self.grow_ops + 2 * self.steady_ops + self.shrink_ops
    }

    /// Phase of the `op_index`-th operation (cyclic).
    pub fn phase(&self, op_index: u64) -> ChurnPhase {
        let i = op_index % self.period();
        if i < self.grow_ops {
            ChurnPhase::Grow
        } else if i < self.grow_ops + self.steady_ops {
            ChurnPhase::Steady
        } else if i < self.grow_ops + self.steady_ops + self.shrink_ops {
            ChurnPhase::Shrink
        } else {
            ChurnPhase::Steady
        }
    }

    /// Draw the `op_index`-th operation: phase-biased updates during
    /// `Grow`/`Shrink`, the caller's `steady_mix` otherwise.
    #[inline]
    pub fn sample(&self, op_index: u64, steady_mix: OpMix, rng: &mut FastRng) -> Op {
        match self.phase(op_index) {
            ChurnPhase::Grow => {
                if rng.bounded(100) < Self::CHURN_UPDATE_PCT {
                    Op::Insert
                } else {
                    Op::Get
                }
            }
            ChurnPhase::Shrink => {
                if rng.bounded(100) < Self::CHURN_UPDATE_PCT {
                    Op::Remove
                } else {
                    Op::Get
                }
            }
            ChurnPhase::Steady => steady_mix.sample(rng),
        }
    }
}

/// Arrival-time schedule for open-loop (arrival-rate-driven) load
/// generation.
///
/// A closed-loop worker's next request waits for the previous reply; an
/// open-loop generator fires requests on a clock, modelling independent
/// clients. Two spacings are provided:
///
/// * **uniform** — arrival `i` at exactly `i / rate` (deterministic, the
///   least bursty offered load at a given rate);
/// * **Poisson** — exponential inter-arrival gaps with mean `1 / rate`
///   (memoryless arrivals, the standard model for independent clients;
///   bursts occur naturally).
///
/// Times are nanoseconds relative to the generator's own start. A driver
/// loop typically looks like: compute the next arrival, sleep/spin until
/// then, submit, repeat — and reports how far completions lag behind
/// scheduled arrivals.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSchedule {
    /// Mean arrivals per second offered by this generator.
    pub rate_per_sec: f64,
    /// Exponential (Poisson process) inter-arrival gaps instead of uniform
    /// spacing.
    pub poisson: bool,
}

impl OpenLoopSchedule {
    /// Uniformly spaced arrivals at `rate_per_sec` (> 0).
    pub fn uniform(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        OpenLoopSchedule {
            rate_per_sec,
            poisson: false,
        }
    }

    /// Poisson arrivals at mean `rate_per_sec` (> 0).
    pub fn poisson(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        OpenLoopSchedule {
            rate_per_sec,
            poisson: true,
        }
    }

    /// Mean gap between arrivals in nanoseconds.
    pub fn mean_gap_ns(&self) -> f64 {
        1e9 / self.rate_per_sec
    }

    /// Scheduled time of the `i`-th arrival in nanoseconds from start
    /// (uniform spacing; for Poisson schedules this is the *mean* arrival
    /// time, useful for lag accounting).
    pub fn arrival_ns(&self, i: u64) -> u64 {
        (i as f64 * self.mean_gap_ns()) as u64
    }

    /// Draw the gap to the next arrival in nanoseconds. Uniform schedules
    /// ignore `rng`; Poisson schedules sample an exponential with mean
    /// [`mean_gap_ns`](Self::mean_gap_ns).
    #[inline]
    pub fn next_gap_ns(&self, rng: &mut FastRng) -> u64 {
        if self.poisson {
            // Inverse-CDF sampling; 1 - u avoids ln(0).
            let u = rng.unit_f64();
            (-(1.0 - u).ln() * self.mean_gap_ns()) as u64
        } else {
            self.mean_gap_ns() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rng_is_deterministic_and_nontrivial() {
        let mut a = FastRng::new(7);
        let mut b = FastRng::new(7);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            distinct.insert(x);
        }
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = FastRng::new(3);
        for bound in [1u64, 2, 7, 1000, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn uniform_sampler_covers_range() {
        let s = KeySampler::new(KeyDist::Uniform, 16);
        let mut rng = FastRng::new(11);
        let mut seen = [0u32; 16];
        for _ in 0..16_000 {
            seen[s.sample(&mut rng) as usize] += 1;
        }
        for (k, &c) in seen.iter().enumerate() {
            assert!(c > 500, "key {k} sampled only {c} times");
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let s = KeySampler::new(KeyDist::Zipf { s: 0.8 }, 1024);
        let mut rng = FastRng::new(5);
        let mut counts = vec![0u64; 1024];
        const N: u64 = 200_000;
        for _ in 0..N {
            let k = s.sample(&mut rng) as usize;
            counts[k] += 1;
        }
        // Rank 1 should be far more popular than rank 512.
        assert!(
            counts[0] > counts[511] * 20,
            "{} vs {}",
            counts[0],
            counts[511]
        );
        // Expected frequency of rank 1: 1/H where H = sum 1/r^0.8.
        let h: f64 = (1..=1024).map(|r| 1.0 / (r as f64).powf(0.8)).sum();
        let expect = N as f64 / h;
        let got = counts[0] as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.1,
            "rank-1 count {got} vs expected {expect}"
        );
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let s = KeySampler::new(KeyDist::Zipf { s: 0.8 }, 512);
        let p = s.probabilities();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn op_mix_ratios() {
        let mix = OpMix::updates(10);
        let mut rng = FastRng::new(99);
        let (mut ins, mut rem, mut get) = (0u32, 0u32, 0u32);
        const N: u32 = 100_000;
        for _ in 0..N {
            match mix.sample(&mut rng) {
                Op::Insert => ins += 1,
                Op::Remove => rem += 1,
                Op::Get => get += 1,
                other => panic!("basic mix drew {other:?}"),
            }
        }
        let insf = ins as f64 / N as f64;
        let remf = rem as f64 / N as f64;
        let getf = get as f64 / N as f64;
        assert!((insf - 0.05).abs() < 0.005, "inserts {insf}");
        assert!((remf - 0.05).abs() < 0.005, "removes {remf}");
        assert!((getf - 0.90).abs() < 0.01, "gets {getf}");
    }

    #[test]
    fn pq_mix_ratios_and_presets() {
        let mix = PqOpMix::mixed();
        let mut rng = FastRng::new(77);
        let (mut push, mut pop, mut peek) = (0u32, 0u32, 0u32);
        const N: u32 = 100_000;
        for _ in 0..N {
            match mix.sample(&mut rng) {
                PqOp::Push => push += 1,
                PqOp::PopMin => pop += 1,
                PqOp::PeekMin => peek += 1,
            }
        }
        assert!(
            (push as f64 / N as f64 - 0.45).abs() < 0.01,
            "pushes {push}"
        );
        assert!((pop as f64 / N as f64 - 0.45).abs() < 0.01, "pops {pop}");
        assert!((peek as f64 / N as f64 - 0.10).abs() < 0.01, "peeks {peek}");
    }

    #[test]
    #[should_panic(expected = "pq op-mix shares must sum to at most 100%")]
    fn pq_mix_rejects_oversubscribed_shares() {
        let _ = PqOpMix::new(60, 60);
    }

    #[test]
    fn tenant_sampler_skews_both_levels_and_respects_base() {
        let t = TenantSampler::zipf_over_zipf(256, 512);
        assert_eq!(t.namespace_count(), 256);
        assert_eq!(t.key_range(), 512);
        let mut rng = FastRng::new(23);
        let mut ns_counts = vec![0u64; 257];
        let mut key_counts = vec![0u64; 512];
        const N: u64 = 100_000;
        for _ in 0..N {
            let (ns, key) = t.sample(&mut rng);
            assert!((1..=256).contains(&ns), "namespace {ns} out of range");
            assert!(key < 512, "key {key} out of range");
            ns_counts[ns as usize] += 1;
            key_counts[key as usize] += 1;
        }
        // Namespace 0 is reserved: never drawn.
        assert_eq!(ns_counts[0], 0);
        // Both levels are Zipf-skewed: the hottest rank dominates the
        // median rank.
        assert!(ns_counts[1] > ns_counts[128] * 10);
        assert!(key_counts[0] > key_counts[255] * 10);
    }

    #[test]
    fn tenant_sampler_uniform_levels_cover_the_space() {
        let t = TenantSampler::new(KeyDist::Uniform, 8, KeyDist::Uniform, 4, 100);
        let mut rng = FastRng::new(31);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4_000 {
            seen.insert(t.sample(&mut rng));
        }
        assert_eq!(seen.len(), 32, "all (namespace, key) pairs reachable");
        assert!(seen.iter().all(|&(ns, _)| (100..108).contains(&ns)));
    }

    #[test]
    fn churn_schedule_cycles_through_phases() {
        let s = ChurnSchedule::new(100, 50, 80);
        assert_eq!(s.period(), 280);
        assert_eq!(s.phase(0), ChurnPhase::Grow);
        assert_eq!(s.phase(99), ChurnPhase::Grow);
        assert_eq!(s.phase(100), ChurnPhase::Steady);
        assert_eq!(s.phase(149), ChurnPhase::Steady);
        assert_eq!(s.phase(150), ChurnPhase::Shrink);
        assert_eq!(s.phase(229), ChurnPhase::Shrink);
        assert_eq!(s.phase(230), ChurnPhase::Steady);
        assert_eq!(s.phase(279), ChurnPhase::Steady);
        // Cyclic.
        assert_eq!(s.phase(280), ChurnPhase::Grow);
        assert_eq!(s.phase(280 * 7 + 150), ChurnPhase::Shrink);
    }

    #[test]
    fn churn_phases_bias_the_op_mix() {
        let s = ChurnSchedule::new(1000, 1000, 1000);
        let steady = OpMix::updates(10);
        let mut rng = FastRng::new(17);
        let (mut grow_ins, mut grow_rem) = (0u64, 0u64);
        for i in 0..1000 {
            match s.sample(i, steady, &mut rng) {
                Op::Insert => grow_ins += 1,
                Op::Remove => grow_rem += 1,
                Op::Get => {}
                other => panic!("churn phase drew {other:?}"),
            }
        }
        assert!(grow_ins > 800, "grow phase inserted only {grow_ins}/1000");
        assert_eq!(grow_rem, 0, "grow phase must not remove");
        let (mut shr_ins, mut shr_rem) = (0u64, 0u64);
        for i in 2000..3000 {
            match s.sample(i, steady, &mut rng) {
                Op::Insert => shr_ins += 1,
                Op::Remove => shr_rem += 1,
                Op::Get => {}
                other => panic!("churn phase drew {other:?}"),
            }
        }
        assert!(shr_rem > 800, "shrink phase removed only {shr_rem}/1000");
        assert_eq!(shr_ins, 0, "shrink phase must not insert");
    }

    #[test]
    fn churn_schedule_degenerate_lengths_are_clamped() {
        let s = ChurnSchedule::new(0, 0, 0);
        assert_eq!(s.period(), 4);
        assert_eq!(s.phase(0), ChurnPhase::Grow);
        assert_eq!(s.phase(1), ChurnPhase::Steady);
        assert_eq!(s.phase(2), ChurnPhase::Shrink);
        assert_eq!(s.phase(3), ChurnPhase::Steady);
    }

    #[test]
    fn open_loop_uniform_spacing_is_exact_and_monotone() {
        let s = OpenLoopSchedule::uniform(1_000_000.0); // 1 op/µs
        assert_eq!(s.mean_gap_ns(), 1_000.0);
        assert_eq!(s.arrival_ns(0), 0);
        assert_eq!(s.arrival_ns(7), 7_000);
        let mut rng = FastRng::new(1);
        assert_eq!(s.next_gap_ns(&mut rng), 1_000);
        for i in 1..100 {
            assert!(s.arrival_ns(i) > s.arrival_ns(i - 1));
        }
    }

    #[test]
    fn open_loop_poisson_gaps_have_the_right_mean() {
        let s = OpenLoopSchedule::poisson(100_000.0); // mean gap 10 µs
        let mut rng = FastRng::new(42);
        const N: u64 = 50_000;
        let mut sum = 0u64;
        let mut over_mean = 0u64;
        for _ in 0..N {
            let g = s.next_gap_ns(&mut rng);
            sum += g;
            if g as f64 > s.mean_gap_ns() {
                over_mean += 1;
            }
        }
        let mean = sum as f64 / N as f64;
        assert!(
            (mean / s.mean_gap_ns() - 1.0).abs() < 0.05,
            "mean gap {mean} vs expected {}",
            s.mean_gap_ns()
        );
        // Exponential: P(X > mean) = 1/e ≈ 0.368.
        let frac = over_mean as f64 / N as f64;
        assert!((frac - 0.368).abs() < 0.02, "P(gap > mean) was {frac}");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn open_loop_rejects_nonpositive_rate() {
        let _ = OpenLoopSchedule::uniform(0.0);
    }

    #[test]
    fn op_mix_extremes() {
        let mut rng = FastRng::new(1);
        let all_reads = OpMix::updates(0);
        for _ in 0..100 {
            assert_eq!(all_reads.sample(&mut rng), Op::Get);
        }
        let all_updates = OpMix::updates(100);
        for _ in 0..100 {
            assert_ne!(all_updates.sample(&mut rng), Op::Get);
        }
    }
}

//! Zipfian key distribution (YCSB-style).
//!
//! The paper's hashtable evaluation uses "skewed workloads generated
//! according to Zipf distribution with parameter 0.99" (§IV-B), citing the
//! YCSB benchmark [10]. This is the standard Gray et al. rejection-free
//! generator with precomputed zeta values, plus the YCSB *scrambled*
//! variant that spreads hot ranks across the key space.

use simcore::SimRng;

/// Zipfian generator over ranks `0..n` with skew `theta`.
///
/// Construction sums `ζ_n` in O(n) `powf` calls; draws only read the
/// precomputed constants. A run builds one generator per key space and
/// every stream over that space clones it.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Build a generator for `n ≥ 1` items with skew `theta ∈ (0, 1)`.
    /// The paper uses `theta = 0.99`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf { n, theta, alpha, zetan, eta }
    }

    /// The paper's configuration: skew 0.99.
    pub fn paper(n: u64) -> Self {
        Zipf::new(n, 0.99)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest.
    pub fn rank(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * spread) as u64 % self.n
    }

    /// Draw a *scrambled* key in `0..n` (YCSB `ScrambledZipfian`): the
    /// popularity ranking holds, but hot keys are spread over the space
    /// instead of clustering at 0.
    pub fn scrambled_key(&self, rng: &mut SimRng) -> u64 {
        fnv64(self.rank(rng)) % self.n
    }

    /// Probability mass of the hottest `k` ranks (analytic).
    pub fn head_mass(&self, k: u64) -> f64 {
        zeta(k.min(self.n), self.theta) / self.zetan
    }
}

/// O(1)-per-draw Zipfian sampler via a precomputed alias table
/// (Walker/Vose method over the exact rank probabilities
/// `p_i = (i+1)^-θ / ζ_n`).
///
/// The CDF-based [`Zipf`] draws one uniform and pays two `powf` calls per
/// rank — fine for thousands of closed-loop ops, hostile to an open-loop
/// traffic engine drawing a key per arrival at millions of arrivals per
/// run. The alias table costs O(n) `powf` calls and 12 bytes per rank to
/// build, then one `gen_range` + one `gen_f64` compare per draw, no
/// transcendentals. The table is a pure function of `(n, θ)` and draws
/// only read it, so a run builds one table per size and shares it
/// read-only (behind an `Arc`) among all its workers; each worker keeps
/// its own RNG, so sharing leaves every draw sequence unchanged.
///
/// This is a *separate sampler with its own draw sequence*, not a drop-in
/// for `Zipf::rank` (the two consume randomness differently). The committed
/// figure reproductions keep drawing from `Zipf`; the traffic engine draws
/// from `ZipfAlias`. A seeded distribution test below pins the two
/// implementations to the same analytic distribution.
#[derive(Clone, Debug)]
pub struct ZipfAlias {
    n: u64,
    /// Acceptance threshold per column in `[0, 1]`.
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfAlias {
    /// Build the alias table for `n ≥ 1` ranks with skew `theta ∈ (0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "need at least one item");
        assert!(n <= u32::MAX as u64, "alias table indexes with u32");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        // Scaled weights w_i = n * p_i; columns with w < 1 are "small".
        let mut scaled: Vec<f64> =
            (1..=n).map(|i| n as f64 / ((i as f64).powf(theta) * zetan)).collect();
        let mut prob = vec![0.0f64; n as usize];
        let mut alias = vec![0u32; n as usize];
        // Vose's stacks, filled back-to-front for deterministic order.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for i in (0..n as usize).rev() {
            if scaled[i] < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let si = s as usize;
            let li = l as usize;
            prob[si] = scaled[si];
            alias[si] = l;
            // The large column donates the remainder of this column.
            scaled[li] = (scaled[li] + scaled[si]) - 1.0;
            if scaled[li] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residue (floating-point dust): full columns.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        ZipfAlias { n, prob, alias }
    }

    /// The paper's configuration: skew 0.99.
    pub fn paper(n: u64) -> Self {
        ZipfAlias::new(n, 0.99)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest. Two RNG draws, one
    /// table probe, no transcendentals.
    #[inline]
    pub fn rank(&self, rng: &mut SimRng) -> u64 {
        let col = rng.gen_range(self.n) as usize;
        if rng.gen_f64() < self.prob[col] {
            col as u64
        } else {
            self.alias[col] as u64
        }
    }

    /// Draw a scrambled key in `0..n` (YCSB `ScrambledZipfian`), same
    /// scrambling as [`Zipf::scrambled_key`].
    #[inline]
    pub fn scrambled_key(&self, rng: &mut SimRng) -> u64 {
        fnv64(self.rank(rng)) % self.n
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Exact summation is O(n); fine for n into the tens of millions at
    // construction time, and we cache the result.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// FNV-1a 64-bit hash of a u64, used for key scrambling and shuffle
/// destination hashing.
pub fn fnv64(x: u64) -> u64 {
    simcore::Fnv64::new().u64(x).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_in_range() {
        let z = Zipf::paper(1000);
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(z.rank(&mut rng) < 1000);
            assert!(z.scrambled_key(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_rank_zero() {
        let z = Zipf::paper(10_000);
        let mut rng = SimRng::new(8);
        let mut hits0 = 0u64;
        let draws = 100_000;
        for _ in 0..draws {
            if z.rank(&mut rng) == 0 {
                hits0 += 1;
            }
        }
        let p0 = hits0 as f64 / draws as f64;
        // Analytic head mass of rank 0 at theta=0.99, n=10000 is ~9.5 %.
        let expected = z.head_mass(1);
        assert!((p0 - expected).abs() < 0.02, "p0 {p0} expected {expected}");
        assert!(p0 > 0.05);
    }

    #[test]
    fn head_mass_matches_paper_skew_intuition() {
        // With theta=0.99 a tiny fraction of keys carries most accesses:
        // the hottest 1/32 of 1M keys absorbs well over half the traffic.
        let z = Zipf::paper(1 << 20);
        let head = z.head_mass((1 << 20) / 32);
        assert!(head > 0.55, "head mass {head}");
        // And mass is monotone in k.
        assert!(z.head_mass(100) < z.head_mass(1000));
        assert!((z.head_mass(1 << 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipf::paper(1 << 16);
        let mut rng = SimRng::new(9);
        // The hottest scrambled key should NOT be key 0.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.scrambled_key(&mut rng)).or_insert(0u64) += 1;
        }
        let (hottest, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_ne!(*hottest, 0, "scrambled hot key must move away from 0");
    }

    #[test]
    fn deterministic_across_runs() {
        let z = Zipf::paper(1000);
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(z.rank(&mut a), z.rank(&mut b));
        }
    }

    #[test]
    fn degenerate_single_item() {
        let z = Zipf::new(1, 0.5);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(z.rank(&mut rng), 0);
        }
    }

    #[test]
    fn alias_ranks_are_in_range_and_deterministic() {
        let z = ZipfAlias::paper(1000);
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..10_000 {
            let r = z.rank(&mut a);
            assert!(r < 1000);
            assert_eq!(r, z.rank(&mut b));
            assert!(z.scrambled_key(&mut a) < 1000);
            z.scrambled_key(&mut b);
        }
    }

    /// Two consumers of one shared alias table draw, interleaved, the
    /// same sequences as two consumers that each built their own.
    #[test]
    fn shared_alias_table_draws_like_private_tables() {
        let shared = std::sync::Arc::new(ZipfAlias::paper(4096));
        let consumers = [std::sync::Arc::clone(&shared), std::sync::Arc::clone(&shared)];
        let private = [ZipfAlias::paper(4096), ZipfAlias::paper(4096)];
        let root = SimRng::new(0x5A4E);
        let mut shared_rngs = [root.split(1), root.split(2)];
        let mut private_rngs = [root.split(1), root.split(2)];
        for _ in 0..10_000 {
            for c in 0..2 {
                assert_eq!(
                    consumers[c].scrambled_key(&mut shared_rngs[c]),
                    private[c].scrambled_key(&mut private_rngs[c])
                );
            }
        }
    }

    #[test]
    fn alias_table_mass_is_exact() {
        // The alias table is a redistribution of the exact probabilities:
        // column masses must sum to n and each rank's reconstructed mass
        // must equal p_i = i^-θ/ζ_n to float precision.
        let n = 4096u64;
        let theta = 0.99;
        let z = ZipfAlias::new(n, theta);
        let zetan = zeta(n, theta);
        let mut mass = vec![0.0f64; n as usize];
        for c in 0..n as usize {
            mass[c] += z.prob[c];
            mass[z.alias[c] as usize] += 1.0 - z.prob[c];
        }
        for (i, m) in mass.iter().enumerate() {
            let exact = n as f64 / (((i + 1) as f64).powf(theta) * zetan);
            assert!((m - exact).abs() < 1e-9, "rank {i}: alias mass {m} exact {exact}");
        }
    }

    /// Satellite pin: the O(1) alias sampler and the CDF implementation
    /// draw from the same distribution. Seeded empirical frequencies of
    /// the head ranks and the aggregate head mass must agree with each
    /// other and with the analytic values.
    #[test]
    fn alias_sampler_pins_against_cdf_implementation() {
        let n = 10_000u64;
        let cdf = Zipf::paper(n);
        let alias = ZipfAlias::paper(n);
        let draws = 200_000u64;
        let mut cdf_counts = [0u64; 16];
        let mut alias_counts = [0u64; 16];
        let mut cdf_head = 0u64; // hottest 1% of ranks
        let mut alias_head = 0u64;
        let mut rng_c = SimRng::new(0x21BF);
        let mut rng_a = SimRng::new(0x21BF);
        for _ in 0..draws {
            let rc = cdf.rank(&mut rng_c);
            let ra = alias.rank(&mut rng_a);
            if rc < 16 {
                cdf_counts[rc as usize] += 1;
            }
            if ra < 16 {
                alias_counts[ra as usize] += 1;
            }
            cdf_head += (rc < n / 100) as u64;
            alias_head += (ra < n / 100) as u64;
        }
        let zetan = zeta(n, 0.99);
        for i in 0..16 {
            let fc = cdf_counts[i] as f64 / draws as f64;
            let fa = alias_counts[i] as f64 / draws as f64;
            let exact = 1.0 / (((i + 1) as f64).powf(0.99) * zetan);
            // The alias table redistributes the *exact* masses, so its
            // empirical frequency sits within sampling noise of analytic.
            assert!((fa - exact).abs() < 0.004, "rank {i}: alias {fa:.4} analytic {exact:.4}");
            // The Gray et al. CDF generator approximates ranks ≥ 2 with a
            // continuous formula (up to ~15% relative there), so the two
            // implementations get the looser cross-check.
            assert!((fc - fa).abs() / fc.max(fa) < 0.20, "rank {i}: cdf {fc:.4} vs alias {fa:.4}");
        }
        // Aggregate head mass matches the analytic value for both — tight
        // for the exact alias table, looser for the approximating CDF.
        let analytic = cdf.head_mass(n / 100);
        for (label, hits, tol) in [("cdf", cdf_head, 0.02), ("alias", alias_head, 0.005)] {
            let f = hits as f64 / draws as f64;
            assert!((f - analytic).abs() < tol, "{label} head {f} analytic {analytic}");
        }
    }
}

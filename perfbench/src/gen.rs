//! Seeded input generation. Everything a run sends — the training
//! corpus behind the artifacts, the contracts requested and their arrival
//! times, the CodeLog records of the drift cycles — is a pure function of
//! the workload seed, so two runs with one seed send identical bytes.

use phishinghook::{extract_dataset, BemConfig, Dataset};
use phishinghook_chain::SimulatedChain;
use phishinghook_evm::Bytecode;
use phishinghook_synth::{
    generate_contract, generate_corpus, ContractClass, CorpusConfig, Difficulty, Family, Month,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Derives an independent stream seed from the workload seed, so the
/// corpus, the contracts and the schedule never share RNG state.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags for [`sub_seed`].
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const CONTRACTS: u64 = 2;
    pub const SCHEDULE: u64 = 3;
    pub const MIX: u64 = 4;
    pub const DRIFT: u64 = 5;
    pub const MODEL: u64 = 6;
}

/// The labeled training corpus the seed's artifacts are trained on.
pub fn training_set(seed: u64) -> Dataset {
    let corpus = generate_corpus(&CorpusConfig::small(sub_seed(seed, stream::CORPUS)));
    let chain = SimulatedChain::from_corpus(&corpus);
    extract_dataset(&chain, &BemConfig::default()).0
}

/// `n` distinct fresh deployments (no two share bytecode), cycling the
/// contract families in order over random months, so every seed draws the
/// same family mix.
pub fn unique_contracts(seed: u64, n: usize) -> Vec<Bytecode> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::CONTRACTS));
    let difficulty = Difficulty::default();
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let family = Family::ALL[out.len() % Family::ALL.len()];
        let month = Month(rng.gen_range(0..=Month::LAST.0));
        let code = generate_contract(family, month, &difficulty, &mut rng);
        if seen.insert(code.as_bytes().to_vec()) {
            out.push(code);
        }
    }
    out
}

/// Open-loop arrival times in seconds from phase start: one Poisson
/// process of `rate / conns` per connection (their superposition is a
/// Poisson process of `rate`), each truncated at `duration`.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64, conns: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::SCHEDULE));
    let per_conn = rate / conns as f64;
    (0..conns)
        .map(|_| {
            let mut t = 0.0;
            let mut times = Vec::new();
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / per_conn;
                if t >= duration {
                    break times;
                }
                times.push(t);
            }
        })
        .collect()
}

/// Which pool contract each of `n` requests asks for: with probability
/// `repeat_share` one of the first `popular` contracts (uniformly), else
/// the next never-requested contract after them. Returns the indices and
/// how many requests drew from the popular set.
pub fn popular_mix(seed: u64, n: usize, popular: usize, repeat_share: f64) -> (Vec<usize>, usize) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::MIX));
    let mut next_fresh = popular;
    let mut repeats = 0;
    let picks = (0..n)
        .map(|_| {
            if rng.gen_bool(repeat_share) {
                repeats += 1;
                rng.gen_range(0..popular)
            } else {
                next_fresh += 1;
                next_fresh - 1
            }
        })
        .collect();
    (picks, repeats)
}

/// One labeled CodeLog record of the drift workload.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub code: Bytecode,
    pub label: u8,
    pub month: u16,
}

/// Generates drift-workload records from one RNG: calm records carry the
/// explorer's true label; shifted ones carry the opposite class's label
/// (a campaign adopting legitimate idioms, or a relabelled family).
pub struct RecordSource {
    rng: StdRng,
    difficulty: Difficulty,
}

impl RecordSource {
    pub fn new(seed: u64) -> Self {
        RecordSource {
            rng: StdRng::seed_from_u64(sub_seed(seed, stream::DRIFT)),
            difficulty: Difficulty::default(),
        }
    }

    fn record(&mut self, class: Option<ContractClass>, flip: bool) -> LogRecord {
        let families: Vec<Family> = Family::ALL
            .iter()
            .copied()
            .filter(|f| class.is_none_or(|c| f.class() == c))
            .collect();
        let family = families[self.rng.gen_range(0..families.len())];
        let month = Month(self.rng.gen_range(0..=Month::LAST.0));
        let code = generate_contract(family, month, &self.difficulty, &mut self.rng);
        LogRecord {
            code,
            label: u8::from((family.class() == ContractClass::Phishing) != flip),
            month: month.0 as u16,
        }
    }

    /// A record of any family under its true label.
    pub fn calm(&mut self) -> LogRecord {
        self.record(None, false)
    }

    /// A record of `class`'s families under the other class's label.
    pub fn shifted(&mut self, class: ContractClass) -> LogRecord {
        self.record(Some(class), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_contracts() {
        assert_eq!(
            poisson_schedule(9, 500.0, 2.0, 2),
            poisson_schedule(9, 500.0, 2.0, 2)
        );
        assert_ne!(
            poisson_schedule(9, 500.0, 2.0, 2),
            poisson_schedule(10, 500.0, 2.0, 2)
        );
        assert_eq!(unique_contracts(9, 40), unique_contracts(9, 40));
        assert_ne!(unique_contracts(9, 40), unique_contracts(10, 40));
        assert_eq!(popular_mix(9, 300, 8, 0.5), popular_mix(9, 300, 8, 0.5));
        let a: Vec<_> = {
            let mut s = RecordSource::new(3);
            (0..20).map(|_| s.calm().code).collect()
        };
        let b: Vec<_> = {
            let mut s = RecordSource::new(3);
            (0..20).map(|_| s.calm().code).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_has_the_requested_rate_and_stays_in_bounds() {
        let sched = poisson_schedule(1, 1000.0, 4.0, 2);
        let n: usize = sched.iter().map(Vec::len).sum();
        assert!((3600..4400).contains(&n), "{n} arrivals for 4000 expected");
        for conn in &sched {
            assert!(conn.windows(2).all(|w| w[0] <= w[1]));
            assert!(conn.iter().all(|&t| (0.0..4.0).contains(&t)));
        }
    }

    #[test]
    fn contracts_are_unique_and_the_mix_repeats_about_the_share() {
        let pool = unique_contracts(5, 300);
        let distinct: HashSet<_> = pool.iter().map(|c| c.as_bytes().to_vec()).collect();
        assert_eq!(distinct.len(), pool.len());
        let (picks, repeats) = popular_mix(5, 2000, 16, 0.5);
        assert!((800..1200).contains(&repeats));
        let fresh: Vec<_> = picks.iter().filter(|&&i| i >= 16).collect();
        let fresh_distinct: HashSet<_> = fresh.iter().collect();
        assert_eq!(
            fresh.len(),
            fresh_distinct.len(),
            "fresh picks never repeat"
        );
    }
}

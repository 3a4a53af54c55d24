//! Latency models for links between peers.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::PeerId;

/// How long a message takes from one peer to another.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every link has the same latency (milliseconds).
    Constant(u64),
    /// Latency drawn uniformly from `[min, max]` per message, from a seeded
    /// generator so that runs are reproducible.
    Uniform {
        /// Lower bound (ms).
        min: u64,
        /// Upper bound (ms), inclusive.
        max: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Explicit per-link latencies with a default for unlisted links.  The
    /// "network proximity" used by replica selection (Section 5) reads these.
    PerLink {
        /// (from, to) → latency (ms).  Lookups are directional.
        links: HashMap<(PeerId, PeerId), u64>,
        /// Latency for links not in the map.
        default: u64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(10)
    }
}

/// A latency sampler: owns the RNG state for the `Uniform` model.
#[derive(Debug)]
pub struct LatencySampler {
    model: LatencyModel,
    rng: StdRng,
}

impl LatencySampler {
    /// Creates a sampler for the model.
    pub fn new(model: LatencyModel) -> Self {
        let seed = match &model {
            LatencyModel::Uniform { seed, .. } => *seed,
            _ => 0,
        };
        LatencySampler {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Samples the latency for one message on the link `from → to`.
    pub fn sample(&mut self, from: &str, to: &str) -> u64 {
        self.draw(|| (PeerId::from(from), PeerId::from(to)))
    }

    /// [`LatencySampler::sample`] for a caller that holds the link's ids
    /// already (the network's per-message path): no name is resolved to a
    /// string to be interned again.
    pub fn sample_ids(&mut self, from: PeerId, to: PeerId) -> u64 {
        self.draw(|| (from, to))
    }

    /// One draw from the model; only `PerLink` asks which link it is for.
    fn draw(&mut self, link: impl FnOnce() -> (PeerId, PeerId)) -> u64 {
        match &self.model {
            LatencyModel::Constant(ms) => *ms,
            LatencyModel::Uniform { min, max, .. } => {
                if max <= min {
                    *min
                } else {
                    self.rng.gen_range(*min..=*max)
                }
            }
            LatencyModel::PerLink { links, default } => {
                links.get(&link()).copied().unwrap_or(*default)
            }
        }
    }

    /// The *expected* latency of a link, used by the optimizer / replica
    /// selection as a proximity measure without consuming randomness.  Takes
    /// names or ids: a caller scoring many links from one peer interns that
    /// peer once, and only `PerLink` resolves either end.
    pub fn expected(&self, from: impl Into<PeerId>, to: impl Into<PeerId>) -> u64 {
        match &self.model {
            LatencyModel::Constant(ms) => *ms,
            LatencyModel::Uniform { min, max, .. } => (min + max) / 2,
            LatencyModel::PerLink { links, default } => links
                .get(&(from.into(), to.into()))
                .copied()
                .unwrap_or(*default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model() {
        let mut s = LatencySampler::new(LatencyModel::Constant(25));
        assert_eq!(s.sample("a", "b"), 25);
        assert_eq!(s.expected("a", "b"), 25);
    }

    #[test]
    fn uniform_model_is_seeded_and_bounded() {
        let mut s1 = LatencySampler::new(LatencyModel::Uniform {
            min: 5,
            max: 50,
            seed: 42,
        });
        let mut s2 = LatencySampler::new(LatencyModel::Uniform {
            min: 5,
            max: 50,
            seed: 42,
        });
        let a: Vec<u64> = (0..20).map(|_| s1.sample("a", "b")).collect();
        let b: Vec<u64> = (0..20).map(|_| s2.sample("a", "b")).collect();
        assert_eq!(a, b, "same seed must give the same sequence");
        assert!(a.iter().all(|&l| (5..=50).contains(&l)));
        assert_eq!(s1.expected("a", "b"), 27);
    }

    #[test]
    fn per_link_model() {
        let mut links = HashMap::new();
        links.insert(("a".into(), "b".into()), 5);
        links.insert(("a".into(), "far".into()), 200);
        let mut s = LatencySampler::new(LatencyModel::PerLink { links, default: 50 });
        assert_eq!(s.sample("a", "b"), 5);
        assert_eq!(s.sample("a", "far"), 200);
        assert_eq!(s.sample("b", "a"), 50, "directional: unlisted reverse link");
        assert_eq!(s.sample_ids("a".into(), "far".into()), 200);
    }

    #[test]
    fn degenerate_uniform_range() {
        let mut s = LatencySampler::new(LatencyModel::Uniform {
            min: 7,
            max: 7,
            seed: 1,
        });
        assert_eq!(s.sample("x", "y"), 7);
    }
}

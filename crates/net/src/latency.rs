//! Latency models for links between peers.
//!
//! A [`LatencyModel::PerLink`] map is what provider selection reads as
//! "network proximity", once per scored candidate.  The sampler
//! compiles it once into a link table keyed by the link's two interned
//! symbols packed into one `u64`, hashed as that integer: a lookup by
//! [`PeerId`]s neither resolves a name nor hashes a string.  The model itself
//! is kept as it was given, and stays the table's oracle.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A hasher for a link's packed symbol pair, hashed as the integer it is:
/// one multiply, then the high half folded into the low one, since the low
/// bits of the product see only the `to` symbol and a hash table picks its
/// bucket from the low bits.
#[derive(Default)]
struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only used via write_u64 on packed links; fold arbitrary bytes
        // anyway so the hasher stays correct for any key type.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mixed = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }
}

/// `PerLink`'s map, compiled: packed `(from, to)` symbols → latency (ms).
type LinkTable = HashMap<u64, u64, BuildHasherDefault<LinkHasher>>;

/// The key of the directional link `from → to` in a [`LinkTable`].
fn link_key(from: PeerId, to: PeerId) -> u64 {
    (u64::from(from.symbol().0) << 32) | u64::from(to.symbol().0)
}

/// A latency sampler: owns the RNG state for the `Uniform` model and the
/// compiled link table of the `PerLink` one.
#[derive(Debug)]
pub struct LatencySampler {
    model: LatencyModel,
    /// The `PerLink` map by packed link key (empty for the other models).
    links: LinkTable,
    rng: StdRng,
}

impl LatencySampler {
    /// Creates a sampler for the model.
    pub fn new(model: LatencyModel) -> Self {
        let seed = match &model {
            LatencyModel::Uniform { seed, .. } => *seed,
            _ => 0,
        };
        let links = match &model {
            LatencyModel::PerLink { links, .. } => links
                .iter()
                .map(|(&(from, to), &ms)| (link_key(from, to), ms))
                .collect(),
            _ => LinkTable::default(),
        };
        LatencySampler {
            model,
            links,
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
            LatencyModel::PerLink { default, .. } => {
                let (from, to) = link();
                self.link(from, to).unwrap_or(*default)
            }
        }
    }

    /// The *expected* latency of a link, used by the optimizer / replica
    /// selection as a proximity measure without consuming randomness.  Takes
    /// names or ids: a caller scoring many links from one peer interns that
    /// peer once, and only `PerLink` interns either end.
    pub fn expected(&self, from: impl Into<PeerId>, to: impl Into<PeerId>) -> u64 {
        match &self.model {
            LatencyModel::Constant(ms) => *ms,
            LatencyModel::Uniform { min, max, .. } => (min + max) / 2,
            LatencyModel::PerLink { default, .. } => {
                self.link(from.into(), to.into()).unwrap_or(*default)
            }
        }
    }

    /// The listed latency of `from → to` in the compiled `PerLink` table.
    fn link(&self, from: PeerId, to: PeerId) -> Option<u64> {
        self.links.get(&link_key(from, to)).copied()
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

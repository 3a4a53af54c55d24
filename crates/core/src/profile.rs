//! The subscription lifetime times itself: a per-phase split of the last
//! submit ([`Monitor::last_submit_profile`]) and of the last teardown
//! ([`Monitor::last_unsubscribe_profile`]).  So does the alert round: a
//! split of the last [`Monitor::tick`] ([`Monitor::last_round_profile`])
//! and of every tick so far ([`Monitor::round_profile`]).
//!
//! Each phase records a deterministic *work* count — what the phase did,
//! identical for a seed on any host — beside the wall-clock time it took.  A
//! phase is timed by one `Instant` read at its end (the previous phase's end
//! is its start), never per task, so the profile is always on.  Phases are
//! named in the span vocabulary:
//!
//! | phase | work |
//! |---|---|
//! | `core.submit.compile` | logical plan nodes compiled ([`Monitor::submit`] only) |
//! | `core.submit.pushdown` | logical plan nodes after the push-down |
//! | `core.submit.reuse` | DHT term queries of the reuse search |
//! | `core.submit.canonicalize` | channel references resolved |
//! | `core.submit.place` | tasks placed |
//! | `core.submit.output_channels` | output channels minted |
//! | `core.submit.install` | operators installed |
//! | `core.submit.publish` | DHT postings inserted |
//! | `core.unsubscribe.owner_release` | owner references released |
//! | `core.unsubscribe.remove` | operator slots emptied |
//! | `core.unsubscribe.retract` | consumer registrations read |
//! | `core.unsubscribe.purge` | ready hosts purged |
//! | `core.unsubscribe.replica` | replica references released |
//! | `core.unsubscribe.release` | task references released |
//! | `core.round.drain_alerters` | alerts drained from the ready hosts' alerters |
//! | `core.round.process_pending` | operator invocations: work items run and partials absorbed |
//! | `core.round.flush_sketches` | sketch stage outputs: partials handed on and root answers |
//! | `core.round.deliver_network` | network messages delivered |
//! | `core.round.retire_idle_hosts` | hosts that left the ready list |
//!
//! A teardown that cascades (a released definition sweeps a retired
//! producer) charges each nested sweep to the sweep's own phases, so the
//! phases always add up to the whole teardown.
//!
//! [`Monitor::last_submit_profile`]: crate::Monitor::last_submit_profile
//! [`Monitor::last_unsubscribe_profile`]: crate::Monitor::last_unsubscribe_profile
//! [`Monitor::submit`]: crate::Monitor::submit
//! [`Monitor::tick`]: crate::Monitor::tick
//! [`Monitor::last_round_profile`]: crate::Monitor::last_round_profile
//! [`Monitor::round_profile`]: crate::Monitor::round_profile

use std::fmt;
use std::time::{Duration, Instant};

/// The phases of a submit, in the order they run.
pub(crate) const SUBMIT_PHASES: [&str; 8] = [
    "core.submit.compile",
    "core.submit.pushdown",
    "core.submit.reuse",
    "core.submit.canonicalize",
    "core.submit.place",
    "core.submit.output_channels",
    "core.submit.install",
    "core.submit.publish",
];

/// The phases of a teardown, in the order a plain one runs them.
pub(crate) const UNSUBSCRIBE_PHASES: [&str; 6] = [
    "core.unsubscribe.owner_release",
    "core.unsubscribe.remove",
    "core.unsubscribe.retract",
    "core.unsubscribe.purge",
    "core.unsubscribe.replica",
    "core.unsubscribe.release",
];

/// The phases of a dispatch round, in the order [`crate::Monitor::tick`]
/// runs them.
pub(crate) const ROUND_PHASES: [&str; 5] = [
    "core.round.drain_alerters",
    "core.round.process_pending",
    "core.round.flush_sketches",
    "core.round.deliver_network",
    "core.round.retire_idle_hosts",
];

/// One phase of a submit, a teardown or a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The phase's span name (see the [module docs](self)).
    pub name: &'static str,
    /// The deterministic work the phase did.
    pub work: u64,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

/// The per-phase split of one submit, one teardown or one or more rounds;
/// every phase is listed, in order, including those that did nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifetimeProfile {
    phases: Vec<Phase>,
}

impl LifetimeProfile {
    /// Every phase, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phases' total time.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.elapsed).sum()
    }

    /// Adds another profile of the same phases, phase by phase: what a
    /// cumulative profile is made of.  An empty profile takes the other's
    /// phases.
    pub(crate) fn absorb(&mut self, other: &LifetimeProfile) {
        if self.phases.is_empty() {
            self.phases.clone_from(&other.phases);
            return;
        }
        debug_assert_eq!(self.phases.len(), other.phases.len(), "same phases");
        for (total, phase) in self.phases.iter_mut().zip(&other.phases) {
            total.work += phase.work;
            total.elapsed += phase.elapsed;
        }
    }

    /// The phase named `name`, when the profile lists it.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// One line per phase: name, work and microseconds.
impl fmt::Display for LifetimeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for phase in &self.phases {
            writeln!(
                f,
                "{:<32} {:>9} {:>12.1} us",
                phase.name,
                phase.work,
                phase.elapsed.as_secs_f64() * 1e6
            )?;
        }
        write!(
            f,
            "{:<32} {:>9} {:>12.1} us",
            "total",
            "",
            self.total().as_secs_f64() * 1e6
        )
    }
}

/// A running clock over a fixed list of phases: each [`PhaseClock::lap`]
/// charges the time since the previous lap (or the start) and a work count
/// to one phase.
pub(crate) struct PhaseClock {
    mark: Instant,
    profile: LifetimeProfile,
}

impl PhaseClock {
    /// A clock started now over `names`, every phase at zero.
    pub(crate) fn start(names: &[&'static str]) -> Self {
        let phases = names.iter().map(|&name| Phase {
            name,
            work: 0,
            elapsed: Duration::ZERO,
        });
        PhaseClock {
            mark: Instant::now(),
            profile: LifetimeProfile {
                phases: phases.collect(),
            },
        }
    }

    /// Charges the time since the last lap and `work` to the phase `name`.
    pub(crate) fn lap(&mut self, name: &'static str, work: u64) {
        let now = Instant::now();
        let phase = self.profile.phases.iter_mut().find(|p| p.name == name);
        let phase = phase.expect("a lap names one of the clock's phases");
        phase.work += work;
        phase.elapsed += now - self.mark;
        self.mark = now;
    }

    /// The profile recorded so far.
    pub(crate) fn finish(self) -> LifetimeProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_per_phase_in_declared_order() {
        let mut clock = PhaseClock::start(&UNSUBSCRIBE_PHASES);
        clock.lap("core.unsubscribe.remove", 3);
        clock.lap("core.unsubscribe.owner_release", 1);
        clock.lap("core.unsubscribe.remove", 2);
        let profile = clock.finish();
        let work: Vec<_> = profile.phases().iter().map(|p| p.work).collect();
        assert_eq!(work, [1, 5, 0, 0, 0, 0]);
        let names: Vec<_> = profile.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, UNSUBSCRIBE_PHASES);
        assert_eq!(profile.to_string().lines().count(), 7);
    }

    #[test]
    fn absorbing_adds_phase_by_phase() {
        let mut total = LifetimeProfile::default();
        for work in [2, 5] {
            let mut clock = PhaseClock::start(&ROUND_PHASES);
            clock.lap("core.round.process_pending", work);
            clock.lap("core.round.retire_idle_hosts", 1);
            total.absorb(&clock.finish());
        }
        let work: Vec<_> = total.phases().iter().map(|p| p.work).collect();
        assert_eq!(work, [0, 7, 0, 0, 2]);
        let pending = total.phase("core.round.process_pending");
        assert_eq!(pending.map(|p| p.work), Some(7));
        assert!(total.phase("core.submit.place").is_none());
    }
}

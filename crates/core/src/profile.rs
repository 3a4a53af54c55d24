//! The subscription lifetime times itself: a per-phase split of the last
//! submit ([`Monitor::last_submit_profile`]) and of the last teardown
//! ([`Monitor::last_unsubscribe_profile`]).
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
//!
//! A teardown that cascades (a released definition sweeps a retired
//! producer) charges each nested sweep to the sweep's own phases, so the
//! phases always add up to the whole teardown.
//!
//! [`Monitor::last_submit_profile`]: crate::Monitor::last_submit_profile
//! [`Monitor::last_unsubscribe_profile`]: crate::Monitor::last_unsubscribe_profile
//! [`Monitor::submit`]: crate::Monitor::submit

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

/// One phase of a submit or a teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The phase's span name (see the [module docs](self)).
    pub name: &'static str,
    /// The deterministic work the phase did.
    pub work: u64,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

/// The per-phase split of one submit or one teardown; every phase is listed,
/// in order, including those that did nothing.
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
}

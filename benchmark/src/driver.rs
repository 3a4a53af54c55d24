//! The closed loop every workload runs, with one client.
//!
//! `Monitor` is a synchronous in-process simulator, so load is "work
//! completed per second at a stated batch size": per repetition a fresh
//! monitor gets its standing subscriptions (one timed `submit` each) and a
//! warm-up, then `steps` × {retire `churn`, submit `churn`, inject `batch`
//! alerts, drain}, then a full timed teardown.  The monitor is
//! `MonitorConfig::default()` with `network.latency` and `dht_nodes` taken
//! from the workload's topology and `workers` set as [`Workers`] explains.
//! Between operations the loop takes the host readings `quiet` describes.
//!
//! The loop names the monitor only through the frozen surface listed in
//! README.md; how an operation is *performed* is the [`Harness`]'s business,
//! which is what lets `benchmark_trace` re-run the identical loop with the
//! operations split into spans.

use std::collections::VecDeque;
use std::time::Instant;

use p2pmon_alerters::SoapCall;
use p2pmon_core::{Monitor, MonitorConfig, SubscriptionHandle};
use p2pmon_net::NetworkConfig;

use crate::oracle::Oracle;
use crate::quiet::{Host, Readings, State};
use crate::workloads::{Generator, Sizes, Topology, Workload};

/// Performs the three operations the loop times.  `id` is the submit,
/// retire or batch index within the repetition — the identifier the spans of
/// one operation share in a traced run.
pub trait Harness {
    fn submit(
        &mut self,
        monitor: &mut Monitor,
        id: u64,
        manager: &str,
        text: &str,
    ) -> Option<SubscriptionHandle>;

    fn unsubscribe(&mut self, monitor: &mut Monitor, id: u64, handle: &SubscriptionHandle) -> bool;

    /// Injects every call, then runs the monitor until idle.
    fn batch(&mut self, monitor: &mut Monitor, id: u64, calls: &[SoapCall]);

    /// Repetition `r` starts on a fresh monitor.
    fn repetition_started(&mut self, _r: usize) {}

    /// Set-up and warm-up are done; the timed window opens.
    fn window_opened(&mut self, _monitor: &mut Monitor) {}

    /// The timed window just closed; the monitor still holds every live
    /// subscription.
    fn window_closed(&mut self, _monitor: &mut Monitor) {}
}

/// The end-to-end harness: the public calls, nothing around them.
pub struct Plain;

impl Harness for Plain {
    fn submit(
        &mut self,
        monitor: &mut Monitor,
        _id: u64,
        manager: &str,
        text: &str,
    ) -> Option<SubscriptionHandle> {
        monitor.submit(manager, text).ok()
    }

    fn unsubscribe(
        &mut self,
        monitor: &mut Monitor,
        _id: u64,
        handle: &SubscriptionHandle,
    ) -> bool {
        monitor.unsubscribe(handle)
    }

    fn batch(&mut self, monitor: &mut Monitor, _id: u64, calls: &[SoapCall]) {
        for call in calls {
            monitor.inject_soap_call(call);
        }
        monitor.run_until_idle();
    }
}

/// How many threads drive a dispatch phase.
///
/// Every gated number is taken with [`Workers::One`], the inline sequential
/// path (results are identical for any worker count).  The default — one
/// worker per core — hands every phase to a thread pool, and on the shared
/// 2-vCPU reference host what that costs is set by whether a neighbour holds
/// the second vCPU: the same build dispatched a batch in 3.7 ms, and twenty
/// minutes later in 5.5 ms, while everything single-threaded stayed within
/// 3 %.  A host that cannot exhibit an effect steadily must not gate on it;
/// `benchmark_trace` runs one repetition with [`Workers::HostDefault`] and
/// reports the ratio, labelled and unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workers {
    One,
    HostDefault,
}

/// A fresh monitor over a workload's topology.
fn monitor_over(topology: Topology, workers: Workers) -> Monitor {
    let defaults = MonitorConfig::default();
    let mut monitor = Monitor::new(MonitorConfig {
        network: NetworkConfig {
            latency: topology.latency,
            ..NetworkConfig::default()
        },
        dht_nodes: topology.dht_nodes,
        workers: match workers {
            Workers::One => 1,
            Workers::HostDefault => defaults.workers,
        },
        ..defaults
    });
    for peer in topology.peers {
        monitor.add_peer(peer);
    }
    monitor
}

/// What one repetition measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Repetition {
    /// Repetition start to the first step of the timed window.
    pub setup_s: f64,
    /// One sample per successful operation, in execution order.
    pub submit_ns: Vec<u64>,
    pub unsubscribe_ns: Vec<u64>,
    pub batch_ns: Vec<u64>,
    /// Per sample, the index in `readings` of the host reading the operation
    /// started under (see `quiet`).
    pub submit_under: Vec<usize>,
    pub unsubscribe_under: Vec<usize>,
    pub batch_under: Vec<usize>,
    pub readings: Readings,
    /// `NetworkStats` deltas over the timed window.
    pub wire_bytes: u64,
    pub wire_messages: u64,
    /// Alerts injected and results delivered in the timed window.
    pub alerts: u64,
    pub results: u64,
}

impl Repetition {
    /// What the host was doing around each submit, unsubscribe and batch
    /// sample, judged against the fastest pass `fastest_ns` of the run.
    pub fn states(&self, fastest_ns: f64) -> [Vec<State>; 3] {
        [
            &self.submit_under,
            &self.unsubscribe_under,
            &self.batch_under,
        ]
        .map(|under| {
            under
                .iter()
                .map(|&i| self.readings.state_after(i, fastest_ns))
                .collect()
        })
    }
}

/// What a whole run measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    pub repetitions: Vec<Repetition>,
    /// Submits, unsubscribes and batches tried, and those that failed: a
    /// refused submit, an `unsubscribe` returning false, a batch whose sink
    /// delta disagrees with the oracle, a sink that fails its final check,
    /// operators left after full teardown.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// `VmHWM` of the process the repetitions ran in (the largest, when
    /// each ran in its own).
    pub peak_rss_mb: f64,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// The fastest pass of the reading kernel over all repetitions.
    pub fn fastest_ns(&self) -> f64 {
        self.repetitions
            .iter()
            .map(|r| r.readings.fastest_ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// Adds the repetitions of `other`, which ran after this one's.
    pub fn absorb(&mut self, other: Outcome) {
        self.repetitions.extend(other.repetitions);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The state of one repetition.
struct Run<'a> {
    generator: Box<dyn Generator>,
    monitor: Monitor,
    oracle: Oracle,
    /// Handle per submitted subscription (`None`: the submit failed).
    handles: Vec<Option<SubscriptionHandle>>,
    /// Subscription indices still deployed, oldest first.
    live: VecDeque<usize>,
    rep: Repetition,
    outcome: &'a mut Outcome,
    host: Host,
}

impl Run<'_> {
    /// Submits the next subscription of the generator.
    fn submit(&mut self, harness: &mut dyn Harness) {
        let i = self.handles.len();
        let subscription = self.generator.subscription(i);
        self.outcome.attempted += 1;
        let reading = self.host.settle();
        let t = Instant::now();
        let handle = harness.submit(
            &mut self.monitor,
            i as u64,
            &subscription.manager,
            &subscription.text,
        );
        let ns = t.elapsed().as_nanos() as u64;
        self.oracle.submitted(i, &subscription.expect);
        match handle {
            Some(_) => {
                self.rep.submit_ns.push(ns);
                self.rep.submit_under.push(reading);
                self.live.push_back(i);
            }
            None => {
                self.oracle.unsubscribed(i);
                self.outcome.fail(format!("submit {i} refused"));
            }
        }
        self.handles.push(handle);
    }

    /// Unsubscribes the oldest live subscription; false when none is left.
    fn retire_oldest(&mut self, harness: &mut dyn Harness) -> bool {
        let Some(i) = self.live.pop_front() else {
            return false;
        };
        let handle = self.handles[i].expect("only deployed subscriptions are live");
        self.outcome.attempted += 1;
        let reading = self.host.settle();
        let t = Instant::now();
        let done = harness.unsubscribe(&mut self.monitor, i as u64, &handle);
        let ns = t.elapsed().as_nanos() as u64;
        self.oracle.unsubscribed(i);
        if done {
            self.rep.unsubscribe_ns.push(ns);
            self.rep.unsubscribe_under.push(reading);
        } else {
            self.outcome.fail(format!("unsubscribe {i} returned false"));
        }
        true
    }

    /// Results sitting in the sinks of every item subscription, live or
    /// retired.
    fn delivered(&self) -> u64 {
        self.handles
            .iter()
            .enumerate()
            .filter(|(i, _)| self.oracle.counts_items(*i))
            .filter_map(|(_, h)| self.monitor.sink(h.as_ref()?))
            .map(|sink| sink.len() as u64)
            .sum()
    }
}

/// Runs `workload` at `sizes`, every repetition in this process; repetition
/// `r` draws everything from `seed + r`.
pub fn run(
    workload: &Workload,
    sizes: Sizes,
    seed: u64,
    workers: Workers,
    harness: &mut dyn Harness,
) -> Outcome {
    let mut outcome = Outcome::default();
    for r in 0..sizes.repetitions {
        outcome.absorb(repetition(workload, sizes, seed, r, workers, harness));
    }
    outcome
}

/// Runs repetition `r` of `workload` at `sizes` alone.
pub fn repetition(
    workload: &Workload,
    sizes: Sizes,
    seed: u64,
    r: usize,
    workers: Workers,
    harness: &mut dyn Harness,
) -> Outcome {
    let mut outcome = Outcome::default();
    // A pinned thread would hand its one CPU down to a pool's workers.
    let host = match workers {
        Workers::One => Host::watched(r),
        Workers::HostDefault => Host::unwatched(),
    };
    let started = Instant::now();
    harness.repetition_started(r);
    let generator = workload.generator(seed.wrapping_add(r as u64));
    let monitor = monitor_over(generator.topology(), workers);
    let mut run = Run {
        generator,
        monitor,
        oracle: Oracle::default(),
        handles: Vec::new(),
        live: VecDeque::new(),
        rep: Repetition::default(),
        outcome: &mut outcome,
        host,
    };

    for _ in 0..sizes.standing {
        run.submit(harness);
    }
    run.host.close();
    let warmup = run.generator.calls(sizes.warmup_alerts);
    let mut expected = run.oracle.injected(&warmup);
    Plain.batch(&mut run.monitor, 0, &warmup);
    run.rep.setup_s = started.elapsed().as_secs_f64();

    let results_before = run.delivered();
    if results_before != expected {
        run.outcome.fail(format!(
            "warm-up delivered {results_before} results, oracle expects {expected}"
        ));
        expected = results_before;
    }
    harness.window_opened(&mut run.monitor);
    let net = run.monitor.network_stats();
    let (bytes_before, messages_before) = (net.total_bytes, net.total_messages);

    for step in 0..sizes.steps {
        for _ in 0..sizes.churn {
            run.retire_oldest(harness);
        }
        for _ in 0..sizes.churn {
            run.submit(harness);
        }
        let calls = run.generator.calls(sizes.batch);
        expected += run.oracle.injected(&calls);
        run.outcome.attempted += 1;
        let reading = run.host.settle();
        let t = Instant::now();
        harness.batch(&mut run.monitor, step as u64, &calls);
        let ns = t.elapsed().as_nanos() as u64;
        let now = run.delivered();
        if now == expected {
            run.rep.batch_ns.push(ns);
            run.rep.batch_under.push(reading);
        } else {
            run.outcome.fail(format!(
                "batch {step}: {now} results delivered, oracle expects {expected}"
            ));
            expected = now;
        }
    }

    run.host.close();
    let net = run.monitor.network_stats();
    run.rep.wire_bytes = net.total_bytes - bytes_before;
    run.rep.wire_messages = net.total_messages - messages_before;
    run.rep.alerts = (sizes.steps * sizes.batch) as u64;
    run.rep.results = expected - results_before;
    harness.window_closed(&mut run.monitor);

    // Every sink against the oracle, then a full timed teardown.
    for (i, handle) in run.handles.iter().enumerate() {
        let Some(handle) = handle else { continue };
        let results = run.monitor.sink(handle).map_or(&[][..], |s| s.results());
        if let Err(why) = run.oracle.check(i, results) {
            run.outcome.fail(why);
        }
    }
    while run.retire_oldest(harness) {}
    let left = run.monitor.operator_count();
    if left != 0 {
        run.outcome
            .fail(format!("{left} operators left after full teardown"));
    }
    let mut rep = run.rep;
    rep.readings = run.host.release();
    outcome.repetitions.push(rep);
    outcome.failed = outcome.failed.min(outcome.attempted);
    outcome.peak_rss_mb = peak_rss_mb();
    outcome
}

//! The two harnesses of a traced run: [`Traced`] performs the driver's
//! operations split into spans, and [`Counted`] wraps any harness to read the
//! monitor's counters at the window boundaries.

use std::collections::HashMap;

use p2pmon_alerters::SoapCall;
use p2pmon_benchmark::driver::Harness;
use p2pmon_core::{
    apply_reuse, push_selections_below_unions, DispatchStats, Monitor, SubscriptionHandle,
};
use p2pmon_filter::{EngineMode, FilterStats};
use p2pmon_p2pml::{compile, parse_subscription, LogicalPlan};

use crate::spans::{Name, Recorder};

/// `submit` split into its body — parse, compile, push-down, `deploy_plan` —
/// and `run_until_idle` into its `tick`s (identical with `self_monitor`
/// off), one span each.  Time inside `tick` cannot be split from outside.
pub struct Traced {
    pub recorder: Recorder,
    /// Manager → proximity of every peer, the table `deploy_plan` builds per
    /// submit; cached here so the shadow reuse search below costs the traced
    /// run only the search itself.
    proximity: HashMap<String, HashMap<String, u64>>,
}

impl Traced {
    pub fn new() -> Self {
        Traced {
            recorder: Recorder::new(),
            proximity: HashMap::new(),
        }
    }
}

impl Harness for Traced {
    fn repetition_started(&mut self, r: usize) {
        self.recorder.repetition = r as u32;
        self.proximity.clear();
    }

    fn submit(
        &mut self,
        monitor: &mut Monitor,
        id: u64,
        manager: &str,
        text: &str,
    ) -> Option<SubscriptionHandle> {
        let rec = &mut self.recorder;
        let root = rec.open(Name::Submit, id);

        let span = rec.open(Name::P2pmlParse, id);
        let parsed = parse_subscription(text);
        rec.close(span);

        let span = rec.open(Name::P2pmlCompile, id);
        let plan = parsed.ok().and_then(|s| compile(&s).ok());
        rec.close(span);
        let Some(plan) = plan else {
            rec.close(root);
            return None;
        };

        let span = rec.open(Name::CorePushdown, id);
        let plan = LogicalPlan {
            root: push_selections_below_unions(plan.root),
            by: plan.by,
            distinct: plan.distinct,
        };
        rec.close(span);

        // Shadow call: the reuse search `deploy_plan` is about to run on the
        // same plan against the same database, timed on its own.  It only
        // adds query counts to the DHT statistics, which is why those are
        // read from the untraced pass.
        let table = self
            .proximity
            .entry(manager.to_string())
            .or_insert_with(|| {
                monitor
                    .peers()
                    .into_iter()
                    .map(|p| {
                        let score = if p == manager {
                            0
                        } else {
                            monitor.expected_latency(manager, p)
                        };
                        (p.to_string(), score)
                    })
                    .collect()
            });
        let span = rec.open(Name::CoreReuseSearch, id);
        let shadow = apply_reuse(&plan.root, monitor.stream_db_mut(), &|peer| {
            table.get(peer).copied().unwrap_or(u64::MAX / 2)
        });
        rec.close(span);
        drop(shadow);

        let span = rec.open(Name::CoreDeployPlan, id);
        let handle = monitor.deploy_plan(manager, plan);
        rec.close(span);

        rec.close(root);
        Some(handle)
    }

    fn unsubscribe(&mut self, monitor: &mut Monitor, id: u64, handle: &SubscriptionHandle) -> bool {
        let span = self.recorder.open(Name::CoreUnsubscribe, id);
        let done = monitor.unsubscribe(handle);
        self.recorder.close(span);
        done
    }

    fn batch(&mut self, monitor: &mut Monitor, id: u64, calls: &[SoapCall]) {
        let rec = &mut self.recorder;
        let root = rec.open(Name::Batch, id);
        let span = rec.open(Name::CoreInject, id);
        for call in calls {
            monitor.inject_soap_call(call);
        }
        rec.close(span);
        loop {
            let span = rec.open(Name::CoreTick, id);
            let more = monitor.tick();
            rec.close(span);
            if !more {
                break;
            }
        }
        rec.close(root);
    }
}

/// Counters read through the monitor's public accessors at the boundaries of
/// the timed window, summed over repetitions.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Deltas over the timed windows.
    pub dispatch: DispatchStats,
    pub filter_documents: u64,
    pub filter_documents_matched: u64,
    pub filter_complex_evaluations: u64,
    pub net_multicast_saved: u64,
    pub net_replica_forwarded: u64,
    /// Whole-repetition values, read when the window closes.
    pub net_dropped: u64,
    pub dht_operations: u64,
    pub dht_hops: u64,
    pub dht_messages: u64,
    pub submits: u64,
    pub operators_live: u64,
    pub reuse_hit_rate: f64,
    pub replica_share: f64,
    pub filter_promotions: u64,
    pub selects_per_peer_max: u64,
    pub staged_peers: u64,
    /// `Monitor::results` over every sink, timed when the window closes.
    pub sink_read_ns: u64,
    pub sink_read_results: u64,
    pub repetitions: u64,
}

/// Wraps a harness; performs nothing itself.
pub struct Counted<H> {
    pub inner: H,
    pub counters: Counters,
    handles: Vec<SubscriptionHandle>,
    opened: Option<(DispatchStats, FilterStats, u64, u64)>,
}

impl<H> Counted<H> {
    pub fn new(inner: H) -> Self {
        Counted {
            inner,
            counters: Counters::default(),
            handles: Vec::new(),
            opened: None,
        }
    }
}

impl<H: Harness> Harness for Counted<H> {
    fn repetition_started(&mut self, r: usize) {
        self.handles.clear();
        self.inner.repetition_started(r);
    }

    fn submit(
        &mut self,
        monitor: &mut Monitor,
        id: u64,
        manager: &str,
        text: &str,
    ) -> Option<SubscriptionHandle> {
        let handle = self.inner.submit(monitor, id, manager, text);
        self.counters.submits += 1;
        self.handles.extend(handle);
        handle
    }

    fn unsubscribe(&mut self, monitor: &mut Monitor, id: u64, handle: &SubscriptionHandle) -> bool {
        self.inner.unsubscribe(monitor, id, handle)
    }

    fn batch(&mut self, monitor: &mut Monitor, id: u64, calls: &[SoapCall]) {
        self.inner.batch(monitor, id, calls);
    }

    fn window_opened(&mut self, monitor: &mut Monitor) {
        let net = monitor.network_stats();
        self.opened = Some((
            monitor.dispatch_stats(),
            monitor.filter_stats(),
            net.multicast_saved_messages,
            net.replica_forwarded_messages,
        ));
        self.inner.window_opened(monitor);
    }

    fn window_closed(&mut self, monitor: &mut Monitor) {
        self.inner.window_closed(monitor);
        let c = &mut self.counters;
        let (dispatch0, filter0, saved0, forwarded0) =
            self.opened.take().expect("the window was opened");
        let dispatch = monitor.dispatch_stats();
        c.dispatch.engine_documents += dispatch.engine_documents - dispatch0.engine_documents;
        c.dispatch.batch_dedup_hits += dispatch.batch_dedup_hits - dispatch0.batch_dedup_hits;
        c.dispatch.gate_passes += dispatch.gate_passes - dispatch0.gate_passes;
        c.dispatch.gate_rejections += dispatch.gate_rejections - dispatch0.gate_rejections;
        c.dispatch.plain_deliveries += dispatch.plain_deliveries - dispatch0.plain_deliveries;
        c.dispatch.sink_clone_bytes += dispatch.sink_clone_bytes - dispatch0.sink_clone_bytes;
        let filter = monitor.filter_stats();
        c.filter_documents += filter.documents - filter0.documents;
        c.filter_documents_matched += filter.documents_matched - filter0.documents_matched;
        c.filter_complex_evaluations += filter.complex_evaluations - filter0.complex_evaluations;
        c.filter_promotions += filter.promotions;
        let net = monitor.network_stats();
        c.net_multicast_saved += net.multicast_saved_messages - saved0;
        c.net_replica_forwarded += net.replica_forwarded_messages - forwarded0;
        c.net_dropped += net.dropped_messages;
        let dht = monitor.dht_stats();
        c.dht_operations += dht.insert_operations + dht.query_operations;
        c.dht_hops += dht.total_hops;
        c.dht_messages += dht.messages;
        c.operators_live += monitor.operator_count() as u64;
        c.reuse_hit_rate += monitor.reuse_stats().hit_rate();
        c.replica_share += monitor.replica_stats().replica_share();
        let peers: Vec<String> = monitor.peers().into_iter().map(String::from).collect();
        let mut selects_max = 0;
        for peer in &peers {
            if let Some(host) = monitor.peer_host(peer) {
                selects_max = selects_max.max(host.registered_selects() as u64);
                if host.filter_mode() == EngineMode::Staged {
                    c.staged_peers += 1;
                }
            }
        }
        c.selects_per_peer_max = c.selects_per_peer_max.max(selects_max);
        let t = std::time::Instant::now();
        let read: usize = self
            .handles
            .iter()
            .map(|h| std::hint::black_box(monitor.results(h)).len())
            .sum();
        c.sink_read_ns += t.elapsed().as_nanos() as u64;
        c.sink_read_results += read as u64;
        c.repetitions += 1;
    }
}

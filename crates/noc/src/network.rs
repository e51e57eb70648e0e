//! An event-driven network with per-link FIFO contention.
//!
//! [`Network`] wraps a [`Topology`] plus a [`CostModel`] and tracks when
//! each link becomes free. Transfers submitted in time order contend for
//! links: a message arriving at a busy link waits for the earlier message
//! to drain. Two forwarding disciplines are modelled:
//!
//! * **store-and-forward** — each link serializes the full payload before
//!   the next hop begins (conservative, used by default), and
//! * **virtual cut-through** — serialization is charged once at the
//!   bottleneck link and other links are held only for the header time.

use std::collections::HashMap;

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{
    fault::salt, CampaignSpec, Counter, Duration, Energy, FaultClock, Histogram, MetricsRegistry,
    OnlineStats, ProbFault, SimRng, Time, TraceBuffer, Tracer, TrackId,
};

use crate::cost::CostModel;
use crate::topology::{LinkId, NodeId, Route, Topology};
use crate::traffic::TrafficStats;

/// Configuration for a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Per-level latency/bandwidth/energy parameters.
    pub cost: CostModel,
    /// `true` for virtual cut-through; `false` for store-and-forward.
    pub cut_through: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            cost: CostModel::ecoscale_defaults(),
            cut_through: false,
        }
    }
}

/// The outcome of one message transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// When the last byte arrives at the destination.
    pub arrival: Time,
    /// Interconnect energy charged to this message.
    pub energy: Energy,
    /// Hops traversed.
    pub hops: u32,
    /// Time spent queueing behind other traffic (contention).
    pub queueing: Duration,
    /// `true` when an active fault campaign corrupted the payload in
    /// flight; the receiver must discard and re-request it. Always
    /// `false` without a fault model.
    pub corrupted: bool,
}

/// FaultPlane injection for the interconnect: link degradation windows
/// plus probabilistic packet corruption.
///
/// A [`FaultClock`] fires degradation events; each one picks a hop of the
/// transfer in flight when it comes due and multiplies that link's
/// serialization time by the campaign's slowdown factor for a fixed
/// window (a flapping or retraining link). Independently, every delivery
/// is corrupted with the campaign's per-message probability.
#[derive(Debug)]
struct LinkFaultModel {
    degrade_clock: FaultClock,
    pick: SimRng,
    corrupt: ProbFault,
    degrade_for: Duration,
    slowdown: f64,
    /// Links currently degraded, and when they recover.
    degraded: HashMap<LinkId, Time>,
    degrade_events: Counter,
    degraded_hops: Counter,
    corrupted: Counter,
}

/// One link's contention state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LinkState {
    /// When the link next becomes free.
    free_at: Time,
    /// Cumulative time the link was held by messages, the basis of
    /// per-link utilization.
    busy: Duration,
}

/// A contention-aware network instance.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{Network, NetworkConfig, NodeId, TreeTopology};
/// use ecoscale_sim::Time;
///
/// let mut net = Network::new(TreeTopology::new(&[4, 4]), NetworkConfig::default());
/// let d1 = net.transfer(Time::ZERO, NodeId(0), NodeId(5), 4096);
/// let d2 = net.transfer(Time::ZERO, NodeId(1), NodeId(5), 4096);
/// // the second message shares links with the first and queues behind it
/// assert!(d2.arrival >= d1.arrival || d2.queueing.is_zero());
/// ```
#[derive(Debug)]
pub struct Network<T: Topology> {
    topo: T,
    config: NetworkConfig,
    /// Every link a message has held.
    links: HashMap<LinkId, LinkState>,
    stats: TrafficStats,
    /// Memoized routes per (src, dst) pair. Topologies are static between
    /// [`Network::invalidate_routes`] calls, and traffic patterns reuse
    /// the same pairs heavily, so transfers skip recomputing the route.
    route_memo: HashMap<(NodeId, NodeId), Route>,
    route_memo_hits: u64,
    route_memo_misses: u64,
    queue_ns: OnlineStats,
    tracer: Tracer,
    link_tracks: HashMap<LinkId, TrackId>,
    faults: Option<LinkFaultModel>,
}

impl<T: Topology> Network<T> {
    /// Creates a network over `topo` with `config`.
    pub fn new(topo: T, config: NetworkConfig) -> Network<T> {
        Network {
            topo,
            config,
            links: HashMap::new(),
            stats: TrafficStats::new(),
            route_memo: HashMap::new(),
            route_memo_hits: 0,
            route_memo_misses: 0,
            queue_ns: OnlineStats::new(),
            tracer: Tracer::disabled(),
            link_tracks: HashMap::new(),
            faults: None,
        }
    }

    /// Arms interconnect fault injection from `spec`. A campaign with
    /// both the link-degradation clock and packet corruption off is a
    /// no-op: no model is installed and transfers behave bit-identically
    /// to an unarmed network.
    pub fn set_faults(&mut self, spec: &CampaignSpec) {
        let degrade = !spec.link_degrade_mtbf.is_zero();
        let corrupt = spec.packet_corrupt_p > 0.0;
        self.faults = if degrade || corrupt {
            Some(LinkFaultModel {
                degrade_clock: if degrade {
                    FaultClock::new(spec.link_degrade_mtbf, spec.rng(salt::LINK_DEGRADE))
                } else {
                    FaultClock::disabled()
                },
                pick: spec.rng(salt::LINK_PICK),
                corrupt: if corrupt {
                    ProbFault::new(spec.packet_corrupt_p, spec.rng(salt::PACKET_CORRUPT))
                } else {
                    ProbFault::disabled()
                },
                degrade_for: spec.link_degrade_for,
                slowdown: spec.link_slowdown.max(1.0),
                degraded: HashMap::new(),
                degrade_events: Counter::new(),
                degraded_hops: Counter::new(),
                corrupted: Counter::new(),
            })
        } else {
            None
        };
    }

    /// Link-degradation events fired, hops that crossed a degraded link,
    /// and deliveries corrupted so far (all zero when unarmed).
    pub fn fault_stats(&self) -> (u64, u64, u64) {
        match &self.faults {
            Some(f) => (
                f.degrade_events.get(),
                f.degraded_hops.get(),
                f.corrupted.get(),
            ),
            None => (0, 0, 0),
        }
    }

    /// Installs a tracer. Every subsequent transfer records one span
    /// per link held, on a `noc/link<N>` track. The default tracer is
    /// disabled and costs one branch per hop.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.link_tracks.clear();
    }

    /// Drains the tracer's buffered events (empty when disabled).
    pub fn take_trace(&self) -> TraceBuffer {
        self.tracer.take()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Contention-free latency quote for `bytes` from `src` to `dst`.
    pub fn quote(&self, src: NodeId, dst: NodeId, bytes: u64) -> Duration {
        let route = self.topo.route(src, dst);
        self.config.cost.latency(&route, bytes)
    }

    /// Submits a transfer of `bytes` from `src` to `dst` starting at
    /// `start`, updating link occupancy and traffic statistics.
    ///
    /// Transfers should be submitted in non-decreasing `start` order for
    /// the contention model to be meaningful; out-of-order submissions are
    /// allowed but see the link in its latest known state.
    pub fn transfer(&mut self, start: Time, src: NodeId, dst: NodeId, bytes: u64) -> Delivery {
        let route = self.memoized_route(src, dst);
        self.stats.record(&route, bytes, &self.config.cost);
        if route.is_local() {
            self.queue_ns.record(0.0);
            return Delivery {
                arrival: start,
                energy: Energy::ZERO,
                hops: 0,
                queueing: Duration::ZERO,
                corrupted: false,
            };
        }
        // Drain due link-degradation events: each picks a hop of this
        // transfer's route and slows that link for a recovery window.
        if let Some(f) = &mut self.faults {
            while let Some(at) = f.degrade_clock.pop_due(start) {
                f.degrade_events.incr();
                let hops: Vec<LinkId> = route.iter().map(|h| h.link).collect();
                let victim = hops[f.pick.gen_range_usize(0, hops.len())];
                let until = at + f.degrade_for;
                let e = f.degraded.entry(victim).or_insert(until);
                *e = (*e).max(until);
            }
        }
        let energy = self.config.cost.energy(&route, bytes);
        let mut cursor = start;
        let mut queueing = Duration::ZERO;
        if self.config.cut_through {
            // Hold every link for the header; serialize once at the
            // bottleneck.
            let mut min_bw = u64::MAX;
            let mut degraded_any = false;
            for hop in route.iter() {
                let p = *self.config.cost.level_params(hop.level);
                let free = self.links.get(&hop.link).map_or(Time::ZERO, |l| l.free_at);
                if free > cursor {
                    queueing += free - cursor;
                    cursor = free;
                }
                if let Some(f) = &mut self.faults {
                    if f.degraded.get(&hop.link).is_some_and(|&u| u > cursor) {
                        f.degraded_hops.incr();
                        degraded_any = true;
                    }
                }
                let held_from = cursor;
                cursor += p.hop_latency;
                self.hold_link(hop.link, held_from, cursor);
                min_bw = min_bw.min(p.bandwidth);
            }
            if bytes > 0 {
                let mut ser = Duration::from_bytes_at_bandwidth(bytes, min_bw);
                if degraded_any {
                    // a degraded link bottlenecks the whole cut-through path
                    ser = ser.mul_f64(self.faults.as_ref().map_or(1.0, |f| f.slowdown));
                }
                cursor += ser;
            }
        } else {
            // Store-and-forward: each link serializes the whole payload.
            for hop in route.iter() {
                let p = *self.config.cost.level_params(hop.level);
                let free = self.links.get(&hop.link).map_or(Time::ZERO, |l| l.free_at);
                if free > cursor {
                    queueing += free - cursor;
                    cursor = free;
                }
                let held_from = cursor;
                cursor += p.hop_latency;
                if bytes > 0 {
                    let mut ser = Duration::from_bytes_at_bandwidth(bytes, p.bandwidth);
                    if let Some(f) = &mut self.faults {
                        if f.degraded.get(&hop.link).is_some_and(|&u| u > cursor) {
                            f.degraded_hops.incr();
                            ser = ser.mul_f64(f.slowdown);
                        }
                    }
                    cursor += ser;
                }
                self.hold_link(hop.link, held_from, cursor);
            }
        }
        self.queue_ns.record(queueing.as_ns_f64());
        let corrupted = match &mut self.faults {
            Some(f) => f.corrupt.strikes(),
            None => false,
        };
        if corrupted {
            self.faults.as_mut().expect("faults armed").corrupted.incr();
        }
        Delivery {
            arrival: cursor,
            energy,
            hops: route.hop_count(),
            queueing,
            corrupted,
        }
    }

    /// Records that a message held `link` from `from` until `until`: the
    /// link is free again at `until`, its busy time grows, and, when
    /// tracing, the interval becomes a span on the link's track.
    fn hold_link(&mut self, link: LinkId, from: Time, until: Time) {
        let held = until - from;
        let state = self.links.entry(link).or_default();
        state.free_at = until;
        state.busy += held;
        if self.tracer.is_enabled() {
            let track = match self.link_tracks.get(&link) {
                Some(&t) => t,
                None => {
                    let t = self.tracer.track(&format!("noc/{link}"));
                    self.link_tracks.insert(link, t);
                    t
                }
            };
            self.tracer.complete(track, "xfer", from, held);
        }
    }

    /// Cumulative busy time of `link` so far.
    pub fn link_busy(&self, link: LinkId) -> Duration {
        self.links.get(&link).map_or(Duration::ZERO, |l| l.busy)
    }

    /// Folds NoC instruments into `m` under `prefix`: message/byte
    /// counters, the hop-count histogram, queueing-delay stats, the
    /// number of distinct links used, and the distribution of per-link
    /// busy time (microseconds) — the per-link utilization signal.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.messages"), self.stats.messages());
        m.add(
            &format!("{prefix}.local_messages"),
            self.stats.local_messages(),
        );
        m.add(
            &format!("{prefix}.payload_bytes"),
            self.stats.payload_bytes(),
        );
        m.add(&format!("{prefix}.byte_hops"), self.stats.byte_hops());
        m.merge_hist(&format!("{prefix}.hops"), self.stats.hops());
        m.merge_stats(&format!("{prefix}.queue_ns"), &self.queue_ns);
        m.add(&format!("{prefix}.links_used"), self.links.len() as u64);
        let busy_name = format!("{prefix}.link_busy_us");
        for (_, state) in self.sorted_links() {
            m.record(&busy_name, state.busy.as_ns() / 1_000);
        }
        m.add(&format!("{prefix}.route_memo_hits"), self.route_memo_hits);
        m.add(
            &format!("{prefix}.route_memo_misses"),
            self.route_memo_misses,
        );
        if let Some(f) = &self.faults {
            m.add(&format!("{prefix}.degrade_events"), f.degrade_events.get());
            m.add(&format!("{prefix}.degraded_hops"), f.degraded_hops.get());
            m.add(&format!("{prefix}.corrupted"), f.corrupted.get());
        }
    }

    /// Route lookup passthrough (uncached).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        self.topo.route(src, dst)
    }

    /// Route lookup through the per-(src, dst) memo.
    fn memoized_route(&mut self, src: NodeId, dst: NodeId) -> Route {
        if let Some(r) = self.route_memo.get(&(src, dst)) {
            self.route_memo_hits += 1;
            return r.clone();
        }
        self.route_memo_misses += 1;
        let r = self.topo.route(src, dst);
        self.route_memo.insert((src, dst), r.clone());
        r
    }

    /// Transfers served from the route memo / computed fresh.
    pub fn route_memo_stats(&self) -> (u64, u64) {
        (self.route_memo_hits, self.route_memo_misses)
    }

    /// Drops all memoized routes. Call after reconfiguring the topology
    /// (e.g. remapping a failed link) so stale paths are never reused.
    pub fn invalidate_routes(&mut self) {
        self.route_memo.clear();
    }

    /// CheckPlane hook: asserts the optimized transfer path's caches and
    /// accounting agree with first principles. Read-only; early-outs when
    /// `cp` is disabled.
    ///
    /// * `noc.route_memo_fresh` — every memoized route equals a fresh
    ///   computation on the topology.
    /// * `noc.conservation` — every transfer is counted exactly once in the
    ///   queueing stats, and the memo counters cover at least every
    ///   recorded message (they survive [`Network::reset`]).
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        for (&(src, dst), route) in &self.route_memo {
            cp.check(
                invariant::NOC_ROUTE_MEMO_FRESH,
                self.topo.route(src, dst) == *route,
                || format!("memoized route {src} -> {dst} is stale"),
            );
        }
        let messages = self.stats.messages();
        cp.check(
            invariant::NOC_CONSERVATION,
            self.queue_ns.count() == messages,
            || {
                format!(
                    "queueing stats hold {} samples for {messages} messages",
                    self.queue_ns.count()
                )
            },
        );
        cp.check(
            invariant::NOC_CONSERVATION,
            self.route_memo_hits + self.route_memo_misses >= messages,
            || {
                format!(
                    "route memo saw {} lookups for {messages} messages",
                    self.route_memo_hits + self.route_memo_misses
                )
            },
        );
    }

    /// Every link held so far, in link-id order.
    fn sorted_links(&self) -> Vec<(LinkId, LinkState)> {
        let mut links: Vec<(LinkId, LinkState)> =
            self.links.iter().map(|(k, v)| (*k, *v)).collect();
        links.sort_unstable_by_key(|&(l, _)| l);
        links
    }

    /// Serializes the network's mutable state: link occupancy and busy
    /// time (sorted by link id), traffic statistics, memoized route
    /// *keys* (routes are recomputed on restore so the memo can never go
    /// stale across a snapshot), instruments, and the fault model's RNG
    /// streams and degradation windows. The tracer and its track cache
    /// are host-facing and not serialized.
    ///
    /// Free times and busy times go out as two lists over the same links,
    /// and a hop-histogram slot repeats the traffic statistics' copy, so
    /// snapshots written before the per-link state was merged still
    /// restore.
    pub fn snapshot_state(&self, w: &mut ecoscale_sim::SnapWriter) {
        use ecoscale_sim::Snapshot as _;
        let links = self.sorted_links();
        w.put_usize(links.len());
        for (l, state) in &links {
            w.put_u64(l.0);
            w.put_time(state.free_at);
        }
        self.stats.snapshot_state(w);
        let mut memo: Vec<(NodeId, NodeId)> = self.route_memo.keys().copied().collect();
        memo.sort_unstable();
        w.put_usize(memo.len());
        for (s, d) in memo {
            w.put_usize(s.0);
            w.put_usize(d.0);
        }
        w.put_u64(self.route_memo_hits);
        w.put_u64(self.route_memo_misses);
        self.stats.hops().snapshot(w);
        self.queue_ns.snapshot(w);
        w.put_usize(links.len());
        for (l, state) in &links {
            w.put_u64(l.0);
            w.put_duration(state.busy);
        }
        w.put_bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.degrade_clock.snapshot(w);
            f.pick.snapshot(w);
            f.corrupt.snapshot(w);
            w.put_duration(f.degrade_for);
            w.put_f64(f.slowdown);
            let mut degraded: Vec<(LinkId, Time)> =
                f.degraded.iter().map(|(k, v)| (*k, *v)).collect();
            degraded.sort_unstable_by_key(|&(l, _)| l);
            w.put_usize(degraded.len());
            for (l, t) in degraded {
                w.put_u64(l.0);
                w.put_time(t);
            }
            f.degrade_events.snapshot(w);
            f.degraded_hops.snapshot(w);
            f.corrupted.snapshot(w);
        }
    }

    /// Overlays state captured by [`Network::snapshot_state`] onto this
    /// network, which must wrap the same topology and configuration.
    /// Memoized routes are recomputed from the live topology.
    ///
    /// # Errors
    ///
    /// [`ecoscale_sim::RestoreError`] on truncated, unsorted, or
    /// out-of-range data, busy times for a different link set than the
    /// free times, or a hop histogram that differs from the traffic
    /// statistics' copy; `self` may be partially overwritten on error and
    /// should be discarded.
    pub fn restore_state(
        &mut self,
        r: &mut ecoscale_sim::SnapReader<'_>,
    ) -> Result<(), ecoscale_sim::RestoreError> {
        use ecoscale_sim::snap::malformed;
        use ecoscale_sim::Restore;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(malformed(format!(
                "network claims {n} occupied links but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut free: Vec<(u64, Time)> = Vec::with_capacity(n);
        for i in 0..n {
            let l = r.get_u64()?;
            let t = r.get_time()?;
            if free.last().is_some_and(|&(p, _)| p >= l) {
                return Err(malformed(format!("link-free map unsorted at index {i}")));
            }
            free.push((l, t));
        }
        self.stats = TrafficStats::restore_state(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(malformed(format!(
                "network claims {n} memoized routes but only {} bytes remain",
                r.remaining()
            )));
        }
        self.route_memo.clear();
        let mut prev: Option<(usize, usize)> = None;
        for i in 0..n {
            let s = r.get_usize()?;
            let d = r.get_usize()?;
            if prev.is_some_and(|p| p >= (s, d)) {
                return Err(malformed(format!("route memo unsorted at index {i}")));
            }
            prev = Some((s, d));
            let (s, d) = (NodeId(s), NodeId(d));
            self.route_memo.insert((s, d), self.topo.route(s, d));
        }
        self.route_memo_hits = r.get_u64()?;
        self.route_memo_misses = r.get_u64()?;
        if Histogram::restore(r)? != *self.stats.hops() {
            return Err(malformed(
                "hop histogram differs from the traffic statistics' copy".to_owned(),
            ));
        }
        self.queue_ns = OnlineStats::restore(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(malformed(format!(
                "network claims {n} busy links but only {} bytes remain",
                r.remaining()
            )));
        }
        if n != free.len() {
            return Err(malformed(format!(
                "network holds busy times for {n} links but free times for {}",
                free.len()
            )));
        }
        self.links.clear();
        for (i, &(l, free_at)) in free.iter().enumerate() {
            let busy_link = r.get_u64()?;
            let busy = r.get_duration()?;
            if busy_link != l {
                return Err(malformed(format!(
                    "busy time for link {busy_link} at index {i}, free time for link {l}"
                )));
            }
            self.links.insert(LinkId(l), LinkState { free_at, busy });
        }
        self.faults = if r.get_bool()? {
            let degrade_clock = FaultClock::restore(r)?;
            let pick = SimRng::restore(r)?;
            let corrupt = ProbFault::restore(r)?;
            let degrade_for = r.get_duration()?;
            let slowdown = r.get_f64()?;
            if !slowdown.is_finite() || slowdown < 1.0 {
                return Err(malformed(format!("fault slowdown {slowdown} out of range")));
            }
            let n = r.get_usize()?;
            if n > r.remaining() {
                return Err(malformed(format!(
                    "network claims {n} degraded links but only {} bytes remain",
                    r.remaining()
                )));
            }
            let mut degraded = HashMap::new();
            let mut prev: Option<u64> = None;
            for i in 0..n {
                let l = r.get_u64()?;
                let t = r.get_time()?;
                if prev.is_some_and(|p| p >= l) {
                    return Err(malformed(format!("degraded set unsorted at index {i}")));
                }
                prev = Some(l);
                degraded.insert(LinkId(l), t);
            }
            Some(LinkFaultModel {
                degrade_clock,
                pick,
                corrupt,
                degrade_for,
                slowdown,
                degraded,
                degrade_events: Counter::restore(r)?,
                degraded_hops: Counter::restore(r)?,
                corrupted: Counter::restore(r)?,
            })
        } else {
            None
        };
        Ok(())
    }

    /// Clears link occupancy, statistics, instruments and memoized
    /// routes. The tracer (if any) is kept but its per-link track cache
    /// is rebuilt lazily.
    pub fn reset(&mut self) {
        self.links.clear();
        self.stats = TrafficStats::new();
        self.queue_ns = OnlineStats::new();
        if let Some(f) = &mut self.faults {
            f.degraded.clear();
        }
        self.invalidate_routes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CrossbarTopology, TreeTopology};

    fn net(cut_through: bool) -> Network<TreeTopology> {
        Network::new(
            TreeTopology::new(&[4, 4]),
            NetworkConfig {
                cost: CostModel::ecoscale_defaults(),
                cut_through,
            },
        )
    }

    #[test]
    fn local_transfer_is_instant_and_free() {
        let mut n = net(false);
        let d = n.transfer(Time::from_ns(100), NodeId(3), NodeId(3), 1 << 20);
        assert_eq!(d.arrival, Time::from_ns(100));
        assert_eq!(d.energy, Energy::ZERO);
        assert_eq!(d.hops, 0);
    }

    #[test]
    fn uncontended_matches_quote_in_cut_through() {
        let mut n = net(true);
        let quote = n.quote(NodeId(0), NodeId(5), 4096);
        let d = n.transfer(Time::ZERO, NodeId(0), NodeId(5), 4096);
        assert_eq!(d.arrival, Time::ZERO + quote);
        assert_eq!(d.queueing, Duration::ZERO);
    }

    #[test]
    fn store_and_forward_slower_than_cut_through() {
        let mut sf = net(false);
        let mut ct = net(true);
        let a = sf.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        let b = ct.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        assert!(a.arrival > b.arrival);
    }

    #[test]
    fn contention_queues_second_message() {
        let mut n = net(false);
        let first = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        // same source, same links
        let second = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        assert!(second.queueing > Duration::ZERO);
        assert!(second.arrival > first.arrival);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut n = net(false);
        let a = n.transfer(Time::ZERO, NodeId(0), NodeId(1), 4096);
        let b = n.transfer(Time::ZERO, NodeId(8), NodeId(9), 4096);
        assert_eq!(a.queueing, Duration::ZERO);
        assert_eq!(b.queueing, Duration::ZERO);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(false);
        n.transfer(Time::ZERO, NodeId(0), NodeId(1), 100);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 100);
        assert_eq!(n.stats().messages(), 2);
        assert!(n.stats().energy().as_pj() > 0.0);
        n.reset();
        assert_eq!(n.stats().messages(), 0);
    }

    #[test]
    fn crossbar_network_works_too() {
        let mut n = Network::new(CrossbarTopology::new(8), NetworkConfig::default());
        let d = n.transfer(Time::ZERO, NodeId(0), NodeId(7), 64);
        assert_eq!(d.hops, 2);
        assert!(d.arrival > Time::ZERO);
    }

    #[test]
    fn route_memo_hits_on_repeated_pairs_and_invalidates() {
        let mut n = net(false);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 64);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 64);
        n.transfer(Time::ZERO, NodeId(1), NodeId(15), 64);
        assert_eq!(n.route_memo_stats(), (1, 2));
        // memoized transfers match the uncached route
        let d = n.transfer(Time::from_ms(10), NodeId(0), NodeId(15), 64);
        assert_eq!(d.hops, n.route(NodeId(0), NodeId(15)).hop_count());
        n.invalidate_routes();
        n.transfer(Time::from_ms(10), NodeId(0), NodeId(15), 64);
        assert_eq!(n.route_memo_stats(), (2, 3));
    }

    #[test]
    fn metrics_and_trace_capture_link_activity() {
        let mut n = net(false);
        n.set_tracer(ecoscale_sim::Tracer::buffering());
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 4096);
        n.transfer(Time::ZERO, NodeId(3), NodeId(3), 4096); // local
        let mut m = ecoscale_sim::MetricsRegistry::new();
        n.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.messages"), Some(2));
        assert_eq!(m.counter("noc.local_messages"), Some(1));
        assert!(m.counter("noc.links_used").unwrap() > 0);
        match m.get("noc.hops") {
            Some(ecoscale_sim::Instrument::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected: {other:?}"),
        }
        let trace = n.take_trace();
        // one span per link held by the non-local transfer
        assert_eq!(trace.len() as u64, m.counter("noc.links_used").unwrap());
        assert!(trace.tracks().iter().all(|t| t.starts_with("noc/link")));
        let total: Duration = trace
            .events()
            .iter()
            .map(|e| match e.kind {
                ecoscale_sim::trace::EventKind::Complete { dur } => dur,
                _ => Duration::ZERO,
            })
            .fold(Duration::ZERO, |a, b| a + b);
        let busy: Duration = n.links.values().fold(Duration::ZERO, |a, l| a + l.busy);
        assert_eq!(total, busy);
    }

    fn fault_spec() -> CampaignSpec {
        let mut s = CampaignSpec::off();
        s.link_degrade_mtbf = Duration::from_us(100);
        s.link_degrade_for = Duration::from_us(500);
        s.link_slowdown = 8.0;
        s.packet_corrupt_p = 0.2;
        s
    }

    #[test]
    fn off_campaign_leaves_network_untouched() {
        let mut plain = net(false);
        let mut armed = net(false);
        armed.set_faults(&CampaignSpec::off());
        for i in 0..20u64 {
            let t = Time::from_us(i);
            let a = plain.transfer(t, NodeId(0), NodeId(15), 4096);
            let b = armed.transfer(t, NodeId(0), NodeId(15), 4096);
            assert_eq!(a, b);
        }
        let mut ma = ecoscale_sim::MetricsRegistry::new();
        let mut mb = ecoscale_sim::MetricsRegistry::new();
        plain.export_metrics(&mut ma, "noc");
        armed.export_metrics(&mut mb, "noc");
        assert_eq!(ma.to_json(), mb.to_json());
    }

    #[test]
    fn degraded_links_slow_transfers() {
        let mut n = net(false);
        n.set_faults(&fault_spec());
        let clean = net(false).transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        // advance far enough that degradation windows are active
        let d = n.transfer(Time::from_ms(1), NodeId(0), NodeId(15), 1 << 16);
        let (events, hops, _) = n.fault_stats();
        assert!(events > 0, "10 ms at 100 us MTBF fires");
        assert!(hops > 0, "transfer crossed a degraded link");
        assert!(
            d.arrival.since(Time::from_ms(1)) > clean.arrival.since(Time::ZERO),
            "degraded path is slower than the clean quote"
        );
    }

    #[test]
    fn packets_corrupt_at_campaign_rate() {
        let mut spec = CampaignSpec::off();
        spec.packet_corrupt_p = 0.3;
        let mut n = net(false);
        n.set_faults(&spec);
        let mut corrupted = 0u64;
        for i in 0..500u64 {
            let d = n.transfer(Time::from_us(i * 10), NodeId(0), NodeId(15), 64);
            if d.corrupted {
                corrupted += 1;
            }
        }
        assert!(corrupted > 80 && corrupted < 250, "got {corrupted}/500");
        assert_eq!(n.fault_stats().2, corrupted);
        // local transfers never corrupt (no links crossed)
        assert!(
            !n.transfer(Time::from_ms(100), NodeId(2), NodeId(2), 64)
                .corrupted
        );
    }

    #[test]
    fn faulted_network_is_deterministic() {
        let run = || {
            let mut n = net(false);
            n.set_faults(&fault_spec());
            let mut log = Vec::new();
            for i in 0..100u64 {
                let d = n.transfer(Time::from_us(i * 50), NodeId(0), NodeId(15), 4096);
                log.push((d.arrival, d.corrupted));
            }
            (log, n.fault_stats())
        };
        assert_eq!(run(), run());
    }

    /// Drives a faulted network through enough traffic that every
    /// snapshotted field (occupancy, memo, degradation windows, RNG
    /// streams) is non-trivial.
    fn churned() -> Network<TreeTopology> {
        let mut n = net(false);
        n.set_faults(&fault_spec());
        for i in 0..60u64 {
            n.transfer(
                Time::from_us(i * 40),
                NodeId((i % 5) as usize),
                NodeId(15 - (i % 3) as usize),
                1 << 12,
            );
        }
        n
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let orig = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        orig.snapshot_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = net(false);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted());

        // re-serialization is byte-identical
        let mut w2 = ecoscale_sim::SnapWriter::new();
        fresh.snapshot_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // both continuations produce identical deliveries and fault draws
        let mut cont = churned();
        for i in 60..120u64 {
            let t = Time::from_us(i * 40);
            let a = cont.transfer(t, NodeId(2), NodeId(14), 1 << 12);
            let b = fresh.transfer(t, NodeId(2), NodeId(14), 1 << 12);
            assert_eq!(a, b, "diverged at transfer {i}");
        }
        assert_eq!(cont.fault_stats(), fresh.fault_stats());
        let mut ma = ecoscale_sim::MetricsRegistry::new();
        let mut mb = ecoscale_sim::MetricsRegistry::new();
        cont.export_metrics(&mut ma, "noc");
        fresh.export_metrics(&mut mb, "noc");
        assert_eq!(ma.to_json(), mb.to_json());
    }

    #[test]
    fn restored_route_memo_is_fresh_and_truncation_fails() {
        let orig = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        orig.snapshot_state(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = net(false);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.restore_state(&mut r).expect("restore");
        let mut cp = CheckPlane::enabled(1);
        fresh.check_invariants(&mut cp);
        assert!(
            cp.ok(),
            "restored network violates invariants: {:?}",
            cp.violations()
        );

        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut n = net(false);
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                n.restore_state(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn restore_refuses_link_lists_or_hop_slot_that_disagree() {
        use ecoscale_sim::Snapshot as _;
        let orig = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        orig.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        let refusal = |bytes: &[u8]| {
            let mut n = net(false);
            let err = n
                .restore_state(&mut ecoscale_sim::SnapReader::new(bytes))
                .expect_err("disagreeing slots restored");
            err.to_string()
        };

        // the free-time list names a link the busy-time list does not
        let links = orig.links.len();
        let last_id = 8 + (links - 1) * 16;
        let mut moved = bytes.clone();
        moved[last_id..last_id + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        assert!(refusal(&moved).contains("busy time for link"));

        // the hop-histogram slot differs from the traffic statistics' copy
        let mut stats = ecoscale_sim::SnapWriter::new();
        orig.stats.snapshot_state(&mut stats);
        let hops_at = 8 + links * 16 + stats.len() + 8 + orig.route_memo.len() * 16 + 16;
        let mut hops = ecoscale_sim::SnapWriter::new();
        orig.stats.hops().snapshot(&mut hops);
        let hops = hops.into_bytes();
        assert_eq!(bytes[hops_at..hops_at + hops.len()], hops[..]);
        let mut empty = ecoscale_sim::SnapWriter::new();
        Histogram::new().snapshot(&mut empty);
        let mut swapped = bytes[..hops_at].to_vec();
        swapped.extend(empty.into_bytes());
        swapped.extend(&bytes[hops_at + hops.len()..]);
        assert!(refusal(&swapped).contains("hop histogram"));
    }

    #[test]
    fn later_start_sees_free_links() {
        let mut n = net(false);
        let first = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        // start well after the first drains: no queueing
        let late = first.arrival + Duration::from_ms(1);
        let second = n.transfer(late, NodeId(0), NodeId(15), 1 << 20);
        assert_eq!(second.queueing, Duration::ZERO);
    }
}

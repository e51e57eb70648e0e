//! `pgas_traffic`: SMMU translation feeding UNIMEM loads and stores,
//! with bulk NoC transfers beside them.
//!
//! Each op translates a Worker virtual address through the SMMU's two
//! stages and then reads or writes 64 B at the physical result; every
//! fourth op also moves 1 KiB over the NoC. Page popularity is
//! zipf(0.9) over 4,096 mapped pages against a 64-entry TLB, so most
//! translations walk the tables. This is the only workload that reaches
//! `mem::smmu`, and it stores through UNIMEM where `cluster_sched` only
//! loads. The modelled TLB and caches start empty in every pass.

use std::time::Instant;

use ecoscale_mem::{
    CacheConfig, DramModel, GlobalAddr, PagePerms, PhysAddr, Smmu, SmmuConfig, UnimemSystem,
    VirtAddr, PAGE_SIZE,
};
use ecoscale_noc::{Network, NetworkConfig, NodeId, TreeTopology};
use ecoscale_sim::{MetricsRegistry, SimRng, Time};

use crate::cpu;
use crate::digest::Digest;
use crate::spans::{SpanLog, EXPORT};
use crate::stats;
use crate::zipf::ZipfTable;
use crate::{Metric, Pass, Workload};

const PAGES: usize = 4_096;
const PAGE_SKEW: f64 = 0.9;
const FANOUT: [usize; 2] = [8, 8];
const NODES: usize = 64;
const OPS: usize = 200_000;
const WRITE_FRAC: f64 = 0.3;
/// Share of ops issued by the page's home node (cacheable); the rest
/// are remote, uncached UNIMEM accesses.
const LOCAL_FRAC: f64 = 0.5;
const ACCESS_BYTES: u64 = 64;
const TRANSFER_EVERY: usize = 4;
const TRANSFER_BYTES: u64 = 1_024;
const VA_BASE_PAGE: u64 = 0x40_000;
const IPA_BASE_PAGE: u64 = 0x80_000;

const TRANSLATE: &str = "mem.smmu.translate";
const READ: &str = "mem.unimem.read";
const WRITE: &str = "mem.unimem.write";
const TRANSFER: &str = "noc.network.transfer";

#[derive(Clone, Copy)]
struct Op {
    page: u32,
    offset: u16,
    node: u16,
    write: bool,
    transfer_to: Option<u16>,
}

pub struct PgasTraffic {
    /// Physical page backing each mapped virtual page.
    pa_page: Vec<u64>,
    ops: Vec<Op>,
    /// Each op's wall time in the current pass. One buffer for every
    /// pass: a fresh 1.6 MB one per pass lands wherever the heap has
    /// room, which moved the peak resident set by ~1.3 MB from run to run.
    op_us: Vec<f64>,
}

/// A physical page's home node and the offset in that node's partition.
fn global(pa: PhysAddr) -> GlobalAddr {
    let page = pa.page();
    let home = (page % NODES as u64) as usize;
    GlobalAddr::new(
        NodeId(home),
        (page / NODES as u64) * PAGE_SIZE + pa.page_offset(),
    )
}

impl PgasTraffic {
    pub fn new(seed: u64) -> PgasTraffic {
        let mut rng = SimRng::seed_from(seed);
        let mut pa_page: Vec<u64> = (0..PAGES as u64).map(|p| 0x1000 + p).collect();
        rng.shuffle(&mut pa_page);
        // popularity rank -> page, so hot pages are spread over homes
        let mut by_rank: Vec<u32> = (0..PAGES as u32).collect();
        rng.shuffle(&mut by_rank);
        let popularity = ZipfTable::new(PAGES, PAGE_SKEW);
        let ops = (0..OPS)
            .map(|i| {
                let page = by_rank[popularity.sample(&mut rng)];
                let home = (pa_page[page as usize] % NODES as u64) as u16;
                let node = if rng.gen_bool(LOCAL_FRAC) {
                    home
                } else {
                    rng.gen_range_usize(0, NODES) as u16
                };
                let transfer_to = (i % TRANSFER_EVERY == TRANSFER_EVERY - 1).then(|| {
                    let hop = rng.gen_range_usize(1, NODES) as u16;
                    (node + hop) % NODES as u16
                });
                Op {
                    page,
                    offset: (rng.gen_range_u64(0, PAGE_SIZE / ACCESS_BYTES) * ACCESS_BYTES) as u16,
                    node,
                    write: rng.gen_bool(WRITE_FRAC),
                    transfer_to,
                }
            })
            .collect();
        PgasTraffic {
            pa_page,
            op_us: Vec::with_capacity(OPS),
            ops,
        }
    }

    fn setup(&self) -> (Smmu, UnimemSystem, Network<TreeTopology>) {
        let mut smmu = Smmu::new(SmmuConfig::default());
        for (p, &pa) in self.pa_page.iter().enumerate() {
            let va = VirtAddr::from_page(VA_BASE_PAGE + p as u64, 0);
            smmu.map(va, IPA_BASE_PAGE + p as u64, pa, PagePerms::RW)
                .expect("each page is mapped once");
        }
        let mem = UnimemSystem::new(NODES, CacheConfig::l1_default(), DramModel::default());
        let net = Network::new(TreeTopology::new(&FANOUT), NetworkConfig::default());
        (smmu, mem, net)
    }
}

impl Workload for PgasTraffic {
    fn name(&self) -> &'static str {
        "pgas_traffic"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let c = cpu::now();
        let (mut smmu, mut mem, mut net) = self.setup();
        let mut p = Pass::new((cpu::now() - c).as_secs_f64());
        let traced = log.enabled();
        let mut digest = Digest::new();
        let mut now = Time::ZERO;
        self.op_us.clear();
        // Traced passes buffer each op's timestamps and record the spans
        // once the pass span is closed, keeping span bookkeeping out of
        // the traced wall time.
        let mut stamps: Vec<[Instant; 4]> =
            Vec::with_capacity(if traced { self.ops.len() } else { 0 });
        log.begin_pass();
        let start = cpu::now();
        for op in &self.ops {
            let va = VirtAddr::from_page(VA_BASE_PAGE + u64::from(op.page), u64::from(op.offset));
            let need = if op.write {
                PagePerms::WRITE
            } else {
                PagePerms::READ
            };
            let node = NodeId(op.node as usize);
            let t0 = Instant::now();
            let translated = smmu.translate(va, need);
            let t1 = if traced { Instant::now() } else { t0 };
            let Ok((pa, walk)) = translated else {
                p.failed += 1;
                continue;
            };
            let at = now + walk;
            let access = if op.write {
                mem.write(&mut net, at, node, global(pa), ACCESS_BYTES)
            } else {
                mem.read(&mut net, at, node, global(pa), ACCESS_BYTES)
            };
            let t2 = if traced { Instant::now() } else { t0 };
            let delivery = op.transfer_to.map(|dst| {
                net.transfer(
                    access.completion,
                    node,
                    NodeId(dst as usize),
                    TRANSFER_BYTES,
                )
            });
            let t3 = Instant::now();
            self.op_us.push((t3 - t0).as_nanos() as f64 * 1e-3);
            if traced {
                stamps.push([t0, t1, t2, t3]);
            }
            let expect = PhysAddr::from_page(self.pa_page[op.page as usize], u64::from(op.offset));
            if pa != expect {
                p.failed += 1;
            }
            digest.u64(access.latency.as_ps());
            if let Some(d) = delivery {
                digest.u64(d.arrival.as_ps());
            }
            now = access.completion;
        }
        let timed = cpu::now() - start;
        let ((m, json), export) = log.time(EXPORT, || {
            let mut m = MetricsRegistry::new();
            smmu.export_metrics(&mut m, "smmu");
            mem.export_metrics(&mut m, "unimem");
            net.export_metrics(&mut m, "noc");
            let json = m.to_json();
            (m, json)
        });
        log.end_pass();
        let (mut read_ns, mut reads, mut write_ns, mut transfer_ns) = (0u64, 0u64, 0u64, 0u64);
        for (op, &[t0, t1, t2, t3]) in self.ops.iter().zip(&stamps) {
            log.record(TRANSLATE, t0, t1);
            let access_ns = (t2 - t1).as_nanos() as u64;
            if op.write {
                log.record(WRITE, t1, t2);
                write_ns += access_ns;
            } else {
                log.record(READ, t1, t2);
                read_ns += access_ns;
                reads += 1;
            }
            if op.transfer_to.is_some() {
                log.record(TRANSFER, t2, t3);
                transfer_ns += (t3 - t2).as_nanos() as u64;
            }
        }
        p.timed_s = timed.as_secs_f64();
        p.timed_s += export.cpu.as_secs_f64();
        p.attempted = self.ops.len() as u64;
        p.work = (p.attempted - p.failed) as f64;
        self.op_us.sort_by(f64::total_cmp);
        p.tail_us = Some((
            stats::percentile(&self.op_us, 50.0),
            stats::percentile(&self.op_us, 99.0),
        ));
        digest.u64(now.as_ps());
        digest.str(&json);
        p.digest = digest.finish();

        let (hits, misses) = (smmu.tlb_hits() as f64, smmu.tlb_misses() as f64);
        let cache_hits = m.counter("unimem.cache.hits").unwrap_or(0) as f64;
        let cache_misses = m.counter("unimem.cache.misses").unwrap_or(0) as f64;
        let (memo_hits, memo_misses) = net.route_memo_stats();
        let writes = (p.attempted - reads) as f64;
        p.counts.extend([
            ("tlb_miss_ratio", misses / (hits + misses).max(1.0)),
            (
                "cache_hit_ratio",
                cache_hits / (cache_hits + cache_misses).max(1.0),
            ),
            (
                "route_memo_hit_ratio",
                memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
            ),
            ("read_ns", read_ns as f64 / (reads as f64).max(1.0)),
            ("write_ns", write_ns as f64 / writes.max(1.0)),
            (
                "transfer_ns",
                transfer_ns as f64 / (self.ops.len() / TRANSFER_EVERY) as f64,
            ),
        ]);
        p
    }

    fn layer_metrics(&self, log: &SpanLog, traced: &[Pass], out: &mut Vec<Metric>) {
        let mean = |key| crate::mean_count(traced, key);
        out.push(Metric::new(
            "mem.smmu.translate_ns",
            log.ns(TRANSLATE) as f64 / log.count(TRANSLATE).max(1) as f64,
            "ns",
        ));
        out.push(Metric::new(
            "mem.smmu.tlb_miss_ratio",
            mean("tlb_miss_ratio"),
            "fraction",
        ));
        out.push(Metric::new("mem.unimem.read_ns", mean("read_ns"), "ns"));
        out.push(Metric::new("mem.unimem.write_ns", mean("write_ns"), "ns"));
        out.push(Metric::new(
            "mem.unimem.cache_hit_ratio",
            mean("cache_hit_ratio"),
            "fraction",
        ));
        out.push(Metric::new(
            "noc.network.transfer_ns",
            mean("transfer_ns"),
            "ns",
        ));
        out.push(Metric::new(
            "noc.network.route_memo_hit_ratio",
            mean("route_memo_hit_ratio"),
            "fraction",
        ));
    }
}

//! Microbenchmarks of the simulator's hot paths: the event queue (calendar
//! queue vs the legacy heap oracle, several depths and horizons), run-cache
//! job-key hashing, the DRAM device scheduler (one command and ~450
//! commands deep), the remap table, rendezvous hashing, trace generation,
//! and a short whole-system run.
//!
//! `cargo bench --bench micro` times everything; `-- --test` smoke-runs
//! each once; a plain argument filters by substring (e.g. `-- queue`).

use h2_bench::Bench;
use h2_harness::cache::Job;
use h2_hybrid::remap::RemapTable;
use h2_hybrid::types::{HybridConfig, ReqClass};
use h2_hydrogen::partition::PartitionMap;
use h2_mem::device::PIPELINE_DEPTH;
use h2_mem::{MemCmd, MemDevice, TimingPreset};
use h2_sim_core::event::legacy::HeapQueue;
use h2_sim_core::EventQueue;
use h2_system::{run_sim, PolicyKind, SystemConfig};
use h2_trace::workloads;
use h2_trace::Mix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// The two queues the event-queue benches compare: the calendar queue the
/// simulator runs on and the binary-heap oracle it replaced.
trait Queue {
    fn now(&self) -> u64;
    fn schedule_at(&mut self, time: u64, payload: u64);
    fn pop_payload(&mut self) -> Option<u64>;
}

impl Queue for EventQueue<u64> {
    fn now(&self) -> u64 {
        EventQueue::now(self)
    }
    fn schedule_at(&mut self, time: u64, payload: u64) {
        EventQueue::schedule_at(self, time, payload)
    }
    fn pop_payload(&mut self) -> Option<u64> {
        self.pop().map(|e| e.payload)
    }
}

impl Queue for HeapQueue<u64> {
    fn now(&self) -> u64 {
        HeapQueue::now(self)
    }
    fn schedule_at(&mut self, time: u64, payload: u64) {
        HeapQueue::schedule_at(self, time, payload)
    }
    fn pop_payload(&mut self) -> Option<u64> {
        self.pop().map(|e| e.payload)
    }
}

/// Steady-state round: schedule `depth` events relative to `now`, drain
/// them all. The queue is constructed once outside the timed region — real
/// simulations build one queue and push hundreds of millions of events
/// through it, so construction is fully amortised.
fn queue_round(q: &mut impl Queue, depth: u64, horizon: u64) -> u64 {
    let now = q.now();
    for i in 0..depth {
        q.schedule_at(now + (i * 7919) % horizon, i);
    }
    let mut sum = 0u64;
    while let Some(p) = q.pop_payload() {
        sum = sum.wrapping_add(p);
    }
    sum
}

/// Mixed horizon: ~1/8 of events far in the future (epoch/faucet timers),
/// exercising the overflow heap and its drain path.
fn mixed_round(q: &mut impl Queue) -> u64 {
    let now = q.now();
    for i in 0..4096u64 {
        let t = if i % 8 == 0 {
            100_000 + (i * 104_729) % 3_000_000
        } else {
            (i * 7919) % 5000
        };
        q.schedule_at(now + t, i);
    }
    let mut sum = 0u64;
    while let Some(p) = q.pop_payload() {
        sum = sum.wrapping_add(p);
    }
    sum
}

fn bench_event_queue(b: &mut Bench) {
    for depth in [256u64, 1024, 4096, 16_384] {
        // Near-horizon: everything lands in the calendar wheel, the common
        // case during simulation (latencies are tens-to-thousands of cycles).
        let horizon = 5000.max(depth / 2);
        let mut cal = EventQueue::new();
        b.bench(&format!("event_queue_calendar_{depth}"), move || {
            black_box(queue_round(&mut cal, depth, horizon))
        });
        let mut heap = HeapQueue::new();
        b.bench(&format!("event_queue_heap_{depth}"), move || {
            black_box(queue_round(&mut heap, depth, horizon))
        });
    }
    let mut cal = EventQueue::new();
    b.bench("event_queue_calendar_4096_mixed", move || black_box(mixed_round(&mut cal)));
    let mut heap = HeapQueue::new();
    b.bench("event_queue_heap_4096_mixed", move || black_box(mixed_round(&mut heap)));
}

fn bench_job_key(b: &mut Bench) {
    let cfg = SystemConfig::paper();
    let mix = Mix::by_name("C1").unwrap();
    let job = Job::new(&cfg, &mix, PolicyKind::HydrogenFull);
    b.bench("cache_job_key_u128", || black_box(job.key()));
}

fn bench_dram_device(b: &mut Bench) {
    b.bench("dram_channel_1k_cmds", || {
        let mut d = MemDevice::new(TimingPreset::Ddr4.timing(), 1);
        let mut out = Vec::new();
        let mut now = 0;
        for i in 0..1000u64 {
            d.enqueue(
                0,
                MemCmd {
                    addr: (i * 12289) % (1 << 26),
                    bytes: 64,
                    is_write: i % 3 == 0,
                    priority: 0,
                    token: i,
                },
                now,
            );
            d.pump(0, now, &mut out);
            if let Some(s) = out.pop() {
                now = s.done_at;
                d.on_complete(0);
            }
            out.clear();
        }
        black_box(d.stats().bytes)
    });
}

/// Pending commands held on the deep-queue bench's channel, about the
/// fast tier's peak depth on a quick-profile C5 job.
const DEEP_QUEUE: u64 = 450;

/// One HBM channel holding ~[`DEEP_QUEUE`] mixed-priority commands in
/// steady state: each step retires the earliest in-flight command, enqueues
/// a replacement and pumps, so every pick sees a deep queue.
fn bench_dram_deep_queue(b: &mut Bench) {
    let timing = TimingPreset::Hbm2eSuper.timing();
    let (banks, row_bytes) = (timing.banks_per_channel as u64, timing.row_bytes);
    let mut d = MemDevice::new(timing, 1);
    let mut inflight = BinaryHeap::new();
    let mut out = Vec::new();
    let mut i = 0u64;
    let mut cmd = move || {
        i += 1;
        let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        MemCmd {
            addr: ((r % 8) * banks + (r >> 8) % banks) * row_bytes + (r >> 16) % row_bytes,
            bytes: 64,
            is_write: r.is_multiple_of(3),
            priority: (r >> 24) as u8 % 3,
            token: i,
        }
    };
    for _ in 0..DEEP_QUEUE + PIPELINE_DEPTH as u64 {
        d.enqueue(0, cmd(), 0);
    }
    d.pump(0, 0, &mut out);
    inflight.extend(out.drain(..).map(|s| Reverse(s.done_at)));
    b.bench("dram_channel_deep_queue", move || {
        for _ in 0..64 {
            let Reverse(now) = inflight.pop().expect("the pipeline stays full");
            d.on_complete(0);
            d.enqueue(0, cmd(), now);
            d.pump(0, now, &mut out);
            inflight.extend(out.drain(..).map(|s| Reverse(s.done_at)));
        }
        black_box(d.stats().bytes)
    });
}

fn bench_remap_table(b: &mut Bench) {
    let cfg = HybridConfig::default();
    let mut t = RemapTable::new(&cfg);
    let sets = cfg.num_sets();
    let mut i = 0u64;
    b.bench("remap_table_lookup_fill", || {
        i += 1;
        let set = (i * 48271) % sets;
        let tag = i % 97;
        match t.lookup(set, tag) {
            Some(w) => t.touch(set, w, false),
            None => {
                if let Some(w) = t.pick_victim(set, 0b1111) {
                    t.fill(set, w, tag, ReqClass::Cpu, false);
                }
            }
        }
    });
}

fn bench_partition_map(b: &mut Bench) {
    let m = PartitionMap::new(4, 1, 3);
    let mut s = 0u64;
    b.bench("rendezvous_cpu_mask", || {
        s += 1;
        black_box(m.cpu_mask(s))
    });
}

fn bench_trace_gen(b: &mut Bench) {
    let spec = workloads::by_name("mcf").unwrap();
    let mut g = spec.instantiate(1, 0, 0, 8);
    b.bench("trace_gen_mcf_ref", || black_box(g.next_ref()));
}

fn bench_span_collector(b: &mut Bench) {
    use h2_sim_core::trace_span::{BlameCause, SpanCollector};
    // One sampled request's full lifecycle: sample, open, meta + device
    // intervals, close (sort, coalesce, tiling check, blame fold).
    let mut c = SpanCollector::new(Some(1));
    let mut t = 0u64;
    b.bench("trace_span_lifecycle", || {
        let id = c.try_sample().expect("rate 1 samples everything");
        c.open(id, (t % 2) as u8, t);
        c.record(id, BlameCause::RemapMiss, t, t + 8);
        c.record(id, BlameCause::QueueBehindGpu, t + 8, t + 40);
        c.record(id, BlameCause::RowConflict, t + 40, t + 55);
        c.record(id, BlameCause::Service, t + 55, t + 80);
        c.close(id, t + 80);
        t += 80;
        // Keep the collector from accumulating unbounded state.
        if c.spans_closed() >= 4096 {
            black_box(c.take_spans());
        }
        black_box(t)
    });

    // The disabled path: what every untraced request pays (must be ~free).
    let mut off = SpanCollector::new(None);
    b.bench("trace_span_disabled_probe", || black_box(off.try_sample()));
}

fn bench_traced_full_system(b: &mut Bench) {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 100_000;
    cfg.trace_sample = Some(64);
    let mix = Mix::by_name("C1").unwrap();
    b.bench("full_system_tiny_c1_150k_traced", move || {
        black_box(run_sim(&cfg, &mix, PolicyKind::HydrogenFull).events_processed)
    });
}

fn bench_full_system(b: &mut Bench) {
    let mut cfg = SystemConfig::tiny();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 100_000;
    let mix = Mix::by_name("C1").unwrap();
    b.bench("full_system_tiny_c1_150k", move || {
        black_box(run_sim(&cfg, &mix, PolicyKind::HydrogenFull).events_processed)
    });
}

fn main() {
    let mut b = Bench::new();
    bench_event_queue(&mut b);
    bench_job_key(&mut b);
    bench_dram_device(&mut b);
    bench_dram_deep_queue(&mut b);
    bench_remap_table(&mut b);
    bench_partition_map(&mut b);
    bench_trace_gen(&mut b);
    bench_span_collector(&mut b);
    bench_full_system(&mut b);
    bench_traced_full_system(&mut b);
    b.finish();
}

//! Run reports: everything a figure needs from one simulation.

use h2_hybrid::policy::PolicyParams;
use h2_hybrid::HmcStats;
use h2_mem::device::MemStats;
use h2_mem::EnergyBreakdown;
use h2_sim_core::trace_span::Span;
use h2_sim_core::{LogHistogram, MetricsRegistry};

/// One epoch's record in the adaptation trace (Hydrogen's search path).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index since measurement start.
    pub epoch: u64,
    /// Weighted IPC measured in this epoch.
    pub weighted_ipc: f64,
    /// Policy `(bw, cap, tok)` in force *after* this epoch's adaptation.
    pub bw: usize,
    /// CPU ways.
    pub cap: usize,
    /// Token level.
    pub tok: usize,
    /// Whether this epoch triggered a remapping reconfiguration.
    pub reconfigured: bool,
}

/// One epoch of the telemetry timeline: the adaptation record plus a
/// registry of per-epoch metric *deltas* (counters, histograms) and
/// instantaneous gauges — the epoch-resolved extension of [`EpochRecord`].
#[derive(Debug, Clone)]
pub struct EpochFrame {
    /// The adaptation-trace record for this epoch.
    pub record: EpochRecord,
    /// Counter/histogram deltas over the epoch; gauges sampled at its end.
    pub metrics: MetricsRegistry,
}

/// Epoch-resolved observability data for one run. Only populated when
/// [`crate::SystemConfig::telemetry`] is on; fully deterministic, so it can
/// be snapshot-tested byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Measured-window totals, with per-bank device detail.
    pub totals: MetricsRegistry,
    /// Per-epoch frames over the measured window.
    pub epochs: Vec<EpochFrame>,
}

/// Sampled request spans from one run (see `h2_sim_core::trace_span`).
/// Only populated when [`crate::SystemConfig::trace_sample`] is set;
/// deterministic for a given seed and rate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// Configured sample rate (every `sample`-th demand read; 0 = none).
    pub sample: u64,
    /// Candidates sampled but discarded because the span cap was reached.
    pub dropped: u64,
    /// Completed spans, sorted by id; each one's blamed intervals exactly
    /// tile its `[start, end)` lifetime.
    pub spans: Vec<Span>,
}

/// Per-tenant SLO summary for one run: measured-window demand-latency
/// histograms per side, from which the p50/p99 tenant metrics derive.
/// Present only on runs with tenant-tagged frontends (scenarios, tenant
/// traces); classic preset runs leave [`RunReport::tenants`] empty.
#[derive(Debug, Clone)]
pub struct TenantSlo {
    /// Tenant name (unique within the run).
    pub name: String,
    /// Priority class (0 = highest).
    pub priority: u8,
    /// CPU demand-read latency over the measured window.
    pub cpu_lat: LogHistogram,
    /// GPU demand latency over the measured window.
    pub gpu_lat: LogHistogram,
}

impl TenantSlo {
    /// Both sides' latencies merged into one histogram.
    pub fn demand_lat(&self) -> LogHistogram {
        let mut h = self.cpu_lat.clone();
        h.merge(&self.gpu_lat);
        h
    }
}

impl PartialEq for TenantSlo {
    fn eq(&self, other: &Self) -> bool {
        fn hist_eq(a: &LogHistogram, b: &LogHistogram) -> bool {
            a.count() == b.count()
                && a.sum() == b.sum()
                && a.nonzero_buckets().eq(b.nonzero_buckets())
        }
        self.name == other.name
            && self.priority == other.priority
            && hist_eq(&self.cpu_lat, &other.cpu_lat)
            && hist_eq(&self.gpu_lat, &other.gpu_lat)
    }
}

/// The result of one simulation run (measured window only).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy label.
    pub policy: String,
    /// Mix name ("C1".."C12" or a custom label).
    pub mix: String,
    /// Cycles in the measured window.
    pub measured_cycles: u64,
    /// CPU instructions retired in the window (all cores).
    pub cpu_instr: u64,
    /// GPU instructions retired in the window (all EUs).
    pub gpu_instr: u64,
    /// Normalised IPC weights `(cpu, gpu)` used for objectives.
    pub weights: (f64, f64),
    /// Hybrid-memory statistics (window deltas).
    pub hmc: HmcStats,
    /// Fast-tier device statistics (window deltas).
    pub fast: MemStats,
    /// Slow-tier device statistics (window deltas).
    pub slow: MemStats,
    /// Fast-tier energy over the window.
    pub fast_energy: EnergyBreakdown,
    /// Slow-tier energy over the window.
    pub slow_energy: EnergyBreakdown,
    /// On-chip remap-cache hit rate over the whole run.
    pub remap_hit_rate: f64,
    /// Final policy parameters.
    pub final_params: PolicyParams,
    /// Per-epoch adaptation trace (measured window).
    pub epoch_trace: Vec<EpochRecord>,
    /// Total simulator events processed (throughput diagnostics).
    pub events_processed: u64,
    /// Host wall-clock seconds the whole simulation took (warm-up +
    /// measurement). Zero for synthetic reports.
    pub wall_s: f64,
    /// Simulator throughput: events processed per host second.
    pub events_per_sec: f64,
    /// Events scheduled in the past and clamped to `now` by the event
    /// queue (release builds). Non-zero values flag scheduling bugs that
    /// debug assertions would have caught.
    pub clamped_events: u64,
    /// Mean CPU demand-read latency (LLC miss to data), cycles.
    pub avg_cpu_read_latency: f64,
    /// Mean GPU demand latency (LLC miss to data), cycles.
    pub avg_gpu_read_latency: f64,
    /// Per-channel bytes moved on the fast tier (whole run — balance
    /// diagnostics).
    pub fast_channel_bytes: Vec<u64>,
    /// Per-channel bytes moved on the slow tier (whole run).
    pub slow_channel_bytes: Vec<u64>,
    /// Epoch-resolved telemetry (None when collection is disabled).
    pub telemetry: Option<RunTelemetry>,
    /// Sampled request spans (None when tracing is disabled).
    pub trace: Option<RunTrace>,
    /// Per-tenant SLO summaries (empty on untagged runs).
    pub tenants: Vec<TenantSlo>,
}

impl RunReport {
    /// CPU IPC over the window.
    pub fn cpu_ipc(&self) -> f64 {
        self.cpu_instr as f64 / self.measured_cycles.max(1) as f64
    }

    /// GPU IPC over the window.
    pub fn gpu_ipc(&self) -> f64 {
        self.gpu_instr as f64 / self.measured_cycles.max(1) as f64
    }

    /// The optimisation objective: weighted IPC.
    pub fn weighted_ipc(&self) -> f64 {
        self.weights.0 * self.cpu_ipc() + self.weights.1 * self.gpu_ipc()
    }

    /// Per-side speedups vs a baseline run `(cpu, gpu)`.
    pub fn side_speedups(&self, base: &RunReport) -> (f64, f64) {
        (
            self.cpu_ipc() / base.cpu_ipc().max(1e-12),
            self.gpu_ipc() / base.gpu_ipc().max(1e-12),
        )
    }

    /// The paper's headline metric (artifact appendix): per-side speedups
    /// vs the baseline, combined with the IPC weights.
    pub fn weighted_speedup(&self, base: &RunReport) -> f64 {
        let (sc, sg) = self.side_speedups(base);
        self.weights.0 * sc + self.weights.1 * sg
    }

    /// Slowdown of one side vs its solo run (Fig 2a): `solo_ipc / ipc`.
    pub fn cpu_slowdown(&self, solo_cpu: &RunReport) -> f64 {
        solo_cpu.cpu_ipc() / self.cpu_ipc().max(1e-12)
    }

    /// GPU slowdown vs its solo run.
    pub fn gpu_slowdown(&self, solo_gpu: &RunReport) -> f64 {
        solo_gpu.gpu_ipc() / self.gpu_ipc().max(1e-12)
    }

    /// Total memory energy in joules (Fig 6).
    pub fn energy_j(&self) -> f64 {
        self.fast_energy.plus(&self.slow_energy).total_j()
    }

    /// Slow-tier traffic in bytes (migration-amplification diagnostics).
    pub fn slow_traffic(&self) -> u64 {
        self.slow.bytes
    }

    /// Look a scalar metric up by its stable name (see [`METRIC_NAMES`]).
    /// This is the lookup the sweep engine's hill-climb search and summary
    /// tables use, so the names are part of the sweep-spec schema.
    pub fn metric(&self, name: &str) -> Option<f64> {
        Some(match name {
            "weighted_ipc" => self.weighted_ipc(),
            "cpu_ipc" => self.cpu_ipc(),
            "gpu_ipc" => self.gpu_ipc(),
            "energy_j" => self.energy_j(),
            "slow_traffic_bytes" => self.slow_traffic() as f64,
            "remap_hit_rate" => self.remap_hit_rate,
            "avg_cpu_read_latency" => self.avg_cpu_read_latency,
            "avg_gpu_read_latency" => self.avg_gpu_read_latency,
            "measured_cycles" => self.measured_cycles as f64,
            "cpu_instr" => self.cpu_instr as f64,
            "gpu_instr" => self.gpu_instr as f64,
            "migrations" => (self.hmc.migrations[0] + self.hmc.migrations[1]) as f64,
            "row_conflicts" => (self.fast.row_conflicts + self.slow.row_conflicts) as f64,
            "tenant_p50_demand_latency" => self.worst_tenant_quantile(0.5),
            "tenant_p99_demand_latency" => self.worst_tenant_quantile(0.99),
            _ => return None,
        })
    }

    /// Worst (max) per-tenant demand-latency quantile — the SLO objective
    /// hill-climb sweeps minimise. `0.0` when the run has no tenants.
    fn worst_tenant_quantile(&self, q: f64) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.demand_lat().quantile(q))
            .max()
            .unwrap_or(0) as f64
    }
}

/// Every name [`RunReport::metric`] resolves, for validation and error
/// messages. Keep the two lists in sync (pinned by a unit test).
pub const METRIC_NAMES: &[&str] = &[
    "weighted_ipc",
    "cpu_ipc",
    "gpu_ipc",
    "energy_j",
    "slow_traffic_bytes",
    "remap_hit_rate",
    "avg_cpu_read_latency",
    "avg_gpu_read_latency",
    "measured_cycles",
    "cpu_instr",
    "gpu_instr",
    "migrations",
    "row_conflicts",
    "tenant_p50_demand_latency",
    "tenant_p99_demand_latency",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cpu_instr: u64, gpu_instr: u64) -> RunReport {
        RunReport {
            policy: "test".into(),
            mix: "C1".into(),
            measured_cycles: 1000,
            cpu_instr,
            gpu_instr,
            weights: (12.0 / 13.0, 1.0 / 13.0),
            hmc: HmcStats::default(),
            fast: MemStats::default(),
            slow: MemStats::default(),
            fast_energy: EnergyBreakdown::default(),
            slow_energy: EnergyBreakdown::default(),
            remap_hit_rate: 0.9,
            final_params: PolicyParams {
                bw: 1,
                cap: 3,
                tok: 3,
                label: "t".into(),
            },
            epoch_trace: vec![],
            events_processed: 0,
            wall_s: 0.0,
            events_per_sec: 0.0,
            clamped_events: 0,
            avg_cpu_read_latency: 0.0,
            avg_gpu_read_latency: 0.0,
            fast_channel_bytes: vec![],
            slow_channel_bytes: vec![],
            telemetry: None,
            trace: None,
            tenants: vec![],
        }
    }

    #[test]
    fn ipcs_and_weighting() {
        let r = report(2000, 13_000);
        assert!((r.cpu_ipc() - 2.0).abs() < 1e-12);
        assert!((r.gpu_ipc() - 13.0).abs() < 1e-12);
        let w = r.weighted_ipc();
        assert!((w - (12.0 / 13.0 * 2.0 + 1.0 / 13.0 * 13.0)).abs() < 1e-9);
    }

    #[test]
    fn weighted_speedup_vs_baseline() {
        let base = report(1000, 10_000);
        let fast = report(1500, 10_000);
        let (sc, sg) = fast.side_speedups(&base);
        assert!((sc - 1.5).abs() < 1e-9);
        assert!((sg - 1.0).abs() < 1e-9);
        let ws = fast.weighted_speedup(&base);
        assert!((ws - (12.0 / 13.0 * 1.5 + 1.0 / 13.0)).abs() < 1e-9);
    }

    #[test]
    fn metric_lookup_covers_every_listed_name() {
        let r = report(2000, 13_000);
        for name in METRIC_NAMES {
            assert!(r.metric(name).is_some(), "METRIC_NAMES entry '{name}' must resolve");
        }
        assert!((r.metric("weighted_ipc").unwrap() - r.weighted_ipc()).abs() < 1e-12);
        assert!((r.metric("cpu_instr").unwrap() - 2000.0).abs() < 1e-12);
        assert_eq!(r.metric("no_such_metric"), None);
    }

    #[test]
    fn tenant_quantile_metrics() {
        let mut r = report(2000, 13_000);
        assert_eq!(r.metric("tenant_p99_demand_latency"), Some(0.0));
        let mut fast = LogHistogram::new();
        for v in [10, 12, 14] {
            fast.record(v);
        }
        let mut slow = LogHistogram::new();
        for v in [100, 400, 900] {
            slow.record(v);
        }
        r.tenants = vec![
            TenantSlo {
                name: "a".into(),
                priority: 0,
                cpu_lat: fast,
                gpu_lat: LogHistogram::new(),
            },
            TenantSlo {
                name: "b".into(),
                priority: 1,
                cpu_lat: LogHistogram::new(),
                gpu_lat: slow.clone(),
            },
        ];
        // The worst tenant's p99 wins.
        assert_eq!(
            r.metric("tenant_p99_demand_latency"),
            Some(slow.quantile(0.99) as f64)
        );
        assert!(r.metric("tenant_p50_demand_latency").unwrap() > 0.0);
    }

    #[test]
    fn slowdowns() {
        let solo = report(2000, 0);
        let shared = report(1000, 5000);
        assert!((shared.cpu_slowdown(&solo) - 2.0).abs() < 1e-9);
    }
}

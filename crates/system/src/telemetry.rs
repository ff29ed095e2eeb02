//! Telemetry serialisation: one machine-readable JSON timeline per run.
//!
//! # Schema (version 2)
//!
//! Version 2 adds the request-span interference matrix: when tracing is on
//! and at least one span has closed, the registries carry a `trace.*`
//! scope — `trace.spans`, `trace.dropped`, and
//! `trace.blame.{cpu,gpu}.<cause>` counters (cumulative blamed cycles per
//! victim class; see `h2_sim_core::trace_span::BlameCause`). Per-epoch
//! frames hold the *deltas* of those counters, i.e. the per-epoch CPU↔GPU
//! interference matrix. With tracing off — or on at sample rate 0 — the
//! scope is absent and the document is byte-identical to a schema-v2 run
//! that never heard of tracing.
//!
//! ```text
//! {
//!   "schema": 2,
//!   "policy": "...", "mix": "...",
//!   "measured_cycles": N, "cpu_instr": N, "gpu_instr": N,
//!   "weighted_ipc": F, "events_processed": N,
//!   "totals": <registry>,          // measured-window deltas, per-bank detail
//!   "epochs": [                    // one frame per measured epoch
//!     { "epoch": N, "weighted_ipc": F,
//!       "bw": N, "cap": N, "tok": N, "reconfigured": B,
//!       "metrics": <registry> },   // per-epoch deltas; gauges at epoch end
//!     ...
//!   ]
//! }
//!
//! <registry> = { "counters": {name: N, ...},   // insertion order
//!                "gauges":   {name: F, ...},
//!                "hists":    {name: {"count": N, "sum": N,
//!                                    "buckets": [[log2_bucket, N], ...]},
//!                             ...} }
//! ```
//!
//! Everything serialised here is *deterministic*: identical across repeat
//! runs. Host-dependent fields of
//! [`RunReport`] (`wall_s`, `events_per_sec`) are deliberately excluded so
//! the output can be byte-compared against golden files. Floats use the
//! canonical shortest-roundtrip form of [`h2_sim_core::json`].

use crate::report::{RunReport, RunTelemetry};
use h2_sim_core::{Json, MetricsRegistry};

/// Telemetry JSON schema version; bump when field meanings change and
/// regenerate the golden files (`H2_BLESS=1`). v2: request-span
/// interference matrix (`trace.*` counters) when tracing is enabled.
pub const TELEMETRY_SCHEMA: u64 = 2;

/// Serialise one registry: counters, gauges, then histograms, each in
/// insertion order. Histograms store only their non-empty log₂ buckets.
pub fn registry_json(reg: &MetricsRegistry) -> Json {
    let mut counters = Json::obj();
    for (n, v) in reg.counters() {
        counters = counters.field(n, v);
    }
    let mut gauges = Json::obj();
    for (n, v) in reg.gauges() {
        gauges = gauges.field(n, v);
    }
    let mut hists = Json::obj();
    for (n, h) in reg.hists() {
        let mut buckets = Json::arr();
        for (b, c) in h.nonzero_buckets() {
            buckets.push(Json::Arr(vec![Json::U64(b as u64), Json::U64(c)]));
        }
        hists = hists.field(
            n,
            Json::obj()
                .field("count", h.count())
                .field("sum", h.sum())
                .field("buckets", buckets),
        );
    }
    Json::obj()
        .field("counters", counters)
        .field("gauges", gauges)
        .field("hists", hists)
}

/// Build the full telemetry document for a report. Returns `None` when the
/// run was executed with telemetry collection disabled.
pub fn telemetry_json(report: &RunReport) -> Option<Json> {
    let t: &RunTelemetry = report.telemetry.as_ref()?;
    let mut epochs = Json::arr();
    for f in &t.epochs {
        let r = &f.record;
        epochs.push(
            Json::obj()
                .field("epoch", r.epoch)
                .field("weighted_ipc", r.weighted_ipc)
                .field("bw", r.bw)
                .field("cap", r.cap)
                .field("tok", r.tok)
                .field("reconfigured", r.reconfigured)
                .field("metrics", registry_json(&f.metrics)),
        );
    }
    Some(
        Json::obj()
            .field("schema", TELEMETRY_SCHEMA)
            .field("policy", report.policy.as_str())
            .field("mix", report.mix.as_str())
            .field("measured_cycles", report.measured_cycles)
            .field("cpu_instr", report.cpu_instr)
            .field("gpu_instr", report.gpu_instr)
            .field("weighted_ipc", report.weighted_ipc())
            .field("events_processed", report.events_processed)
            .field("totals", registry_json(&t.totals))
            .field("epochs", epochs),
    )
}

impl RunReport {
    /// The run's telemetry timeline as canonical pretty-printed JSON
    /// (`None` when telemetry was disabled). Byte-stable across repeat
    /// runs — the golden-snapshot format.
    pub fn telemetry_json_string(&self) -> Option<String> {
        telemetry_json(self).map(|j| j.to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrips_structure() {
        let mut reg = MetricsRegistry::new(true);
        reg.inc("b.second", 2);
        reg.inc("a.first", 1);
        reg.set_gauge("g", 0.5);
        reg.observe("lat", 100);
        reg.observe("lat", 3);
        let j = registry_json(&reg);
        let s = j.to_string_compact();
        // Insertion order preserved, not alphabetical.
        assert!(s.find("b.second").unwrap() < s.find("a.first").unwrap());
        assert!(s.contains(r#""count":2"#));
        assert!(s.contains(r#""sum":103"#));
    }
}

//! Folding the simulator's self-profile (`h2_sim_core::prof`) into the
//! per-layer view: self time and call counts per scope name, summed over
//! every path the scope appears on, and each scope name mapped to the
//! crate that owns it.

use h2_sim_core::prof::{ProfNode, ProfReport};
use std::collections::BTreeMap;

/// The crate layers the profiler's scopes belong to, in report order.
pub const LAYERS: [&str; 6] = ["sim-core", "system", "mem", "hybrid", "cache", "core"];

/// The crate that owns a profiler scope, or `None` for a scope this map
/// does not know (a new scope shows up as unattributed time until the map
/// learns it).
pub fn layer_of(scope: &str) -> Option<&'static str> {
    match scope {
        "queue.pop" => Some("sim-core"),
        "mem.schedule" => Some("mem"),
        "cache.walk" | "cache.remap_probe" => Some("cache"),
        "hmc.policy" => Some("core"),
        s if s.starts_with("hmc.") => Some("hybrid"),
        s if s.starts_with("run.") || s.starts_with("dispatch.") || s.starts_with("parallel.") => {
            Some("system")
        }
        _ => None,
    }
}

/// Totals for one scope name.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScopeTotals {
    pub self_ns: u64,
    pub calls: u64,
}

/// Accumulated profile over one or more traced passes.
#[derive(Debug, Default)]
pub struct LayerProfile {
    pub scopes: BTreeMap<String, ScopeTotals>,
    /// Sum of root inclusive times: every nanosecond some scope covered.
    pub covered_ns: u64,
}

impl LayerProfile {
    /// Fold one report in.
    pub fn add(&mut self, report: &ProfReport) {
        fn walk(n: &ProfNode, into: &mut BTreeMap<String, ScopeTotals>) {
            let t = into.entry(n.name.clone()).or_default();
            t.self_ns += n.excl_ns;
            t.calls += n.count;
            for c in &n.children {
                walk(c, into);
            }
        }
        for r in &report.roots {
            walk(r, &mut self.scopes);
        }
        self.covered_ns += report.total_ns();
    }

    /// Self nanoseconds of one scope name (0 when never entered).
    pub fn self_ns(&self, scope: &str) -> u64 {
        self.scopes.get(scope).map_or(0, |t| t.self_ns)
    }

    /// Entry count of one scope name.
    pub fn calls(&self, scope: &str) -> u64 {
        self.scopes.get(scope).map_or(0, |t| t.calls)
    }

    /// Self nanoseconds per layer, in [`LAYERS`] order.
    pub fn layer_self_ns(&self) -> [u64; LAYERS.len()] {
        let mut out = [0u64; LAYERS.len()];
        for (name, t) in &self.scopes {
            if let Some(l) = layer_of(name) {
                let i = LAYERS.iter().position(|x| *x == l).expect("layer listed");
                out[i] += t.self_ns;
            }
        }
        out
    }

    /// Scope names [`layer_of`] does not map to a layer.
    pub fn unmapped(&self) -> Vec<String> {
        self.scopes
            .keys()
            .filter(|n| layer_of(n).is_none())
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_scope_has_a_layer() {
        for s in [
            "queue.pop",
            "run.scalar",
            "dispatch.mem_done",
            "mem.schedule",
            "hmc.access",
            "hmc.remap",
            "cache.walk",
            "cache.remap_probe",
            "hmc.policy",
        ] {
            assert!(layer_of(s).is_some(), "{s}");
        }
        assert_eq!(layer_of("hmc.policy"), Some("core"));
        assert_eq!(layer_of("shard"), None);
    }
}

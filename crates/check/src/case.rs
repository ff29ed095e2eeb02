//! Fuzz cases: a seeded sampler over [`SystemConfig`]s and synthetic
//! workload mixes, plus a self-contained JSON codec so a failing case can
//! be committed as `repro.json` and replayed byte-for-byte later.
//!
//! A case stores workload *names* (resolved against the
//! [`h2_trace::workloads`] catalog at build time) rather than full specs:
//! the catalog name doubles as the deterministic RNG label for the
//! workload's reference stream, which is exactly what makes a replayed
//! case bit-identical to the original run.

use h2_hybrid::types::Mode;
use h2_sim_core::units::MIB;
use h2_sim_core::{Json, SeededRng};
use h2_system::{PolicyKind, SystemConfig};
use h2_trace::{workloads, WorkloadSpec};

/// Policies safe to run in flat (non-cache) mode. HAShCache and friends
/// assume the cache organisation; the paper only evaluates flat mode for
/// the shared baseline and Hydrogen.
const FLAT_SAFE: &[&str] = &["NoPart", "NoMigrate", "HydrogenDp", "HydrogenDpToken", "HydrogenFull"];

/// A resolved case, ready for `run_workloads`: the validated config, the
/// CPU workload specs, the GPU kernel, the policy, and the fast capacity.
pub type BuiltCase = (SystemConfig, Vec<WorkloadSpec>, Option<WorkloadSpec>, PolicyKind, u64);

/// One self-contained fuzz case. Every field feeds [`FuzzCase::build`];
/// nothing about a run depends on ambient state.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Generator seed this case was sampled from (provenance only).
    pub case_seed: u64,
    /// Simulation seed (`SystemConfig::seed`).
    pub sim_seed: u64,
    /// CPU workload names from the catalog (may be empty if `gpu` is set).
    pub cpu: Vec<String>,
    /// GPU kernel name from the catalog.
    pub gpu: Option<String>,
    /// Policy name (see [`PolicyKind::CATALOG`]).
    pub policy: String,
    /// Flat (true) or cache (false) organisation.
    pub flat: bool,
    /// Fast ways per set.
    pub assoc: usize,
    /// Fast-memory channels.
    pub fast_channels: usize,
    /// Slow-memory channels.
    pub slow_channels: usize,
    /// CPU cores.
    pub cpu_cores: usize,
    /// GPU execution units.
    pub gpu_eus: usize,
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// Token-faucet period in cycles.
    pub faucet_cycles: u64,
    /// Warm-up cycles.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Footprint divisor.
    pub footprint_scale: u64,
    /// Fast-tier capacity in bytes.
    pub fast_capacity: u64,
    /// Request-trace sampling rate (None = tracing off).
    pub trace_sample: Option<u64>,
}

impl FuzzCase {
    /// Sample a case from `case_seed`. The sampled space stays tiny-scale
    /// so a full battery runs in roughly a second.
    pub fn generate(case_seed: u64) -> FuzzCase {
        let mut rng = SeededRng::derive(case_seed, "h2-check/case");
        let cpu_catalog = workloads::cpu_workloads();
        let gpu_catalog = workloads::gpu_workloads();

        let n_cpu = rng.below(4) as usize; // 0..=3 components
        let mut cpu: Vec<String> = (0..n_cpu)
            .map(|_| cpu_catalog[rng.below(cpu_catalog.len() as u64) as usize].name.to_string())
            .collect();
        let mut gpu = rng
            .chance(0.7)
            .then(|| gpu_catalog[rng.below(gpu_catalog.len() as u64) as usize].name.to_string());
        if cpu.is_empty() && gpu.is_none() {
            // At least one side must exist; flip a coin for which.
            if rng.chance(0.5) {
                cpu.push(cpu_catalog[rng.below(cpu_catalog.len() as u64) as usize].name.to_string());
            } else {
                gpu = Some(
                    gpu_catalog[rng.below(gpu_catalog.len() as u64) as usize].name.to_string(),
                );
            }
        }

        let catalog = PolicyKind::CATALOG;
        let (policy, _) = catalog[rng.below(catalog.len() as u64) as usize];
        let flat = rng.chance(0.2) && FLAT_SAFE.contains(&policy);
        let epoch_cycles = rng.range_inclusive(20, 80) * 1_000;
        FuzzCase {
            case_seed,
            sim_seed: rng.next_u64() & 0xFFFF,
            cpu,
            gpu,
            policy: policy.to_string(),
            flat,
            assoc: [1usize, 2, 4, 8][rng.below(4) as usize],
            fast_channels: rng.range_inclusive(1, 4) as usize,
            slow_channels: rng.range_inclusive(1, 4) as usize,
            cpu_cores: rng.range_inclusive(1, 3) as usize,
            gpu_eus: rng.range_inclusive(4, 16) as usize,
            epoch_cycles,
            faucet_cycles: rng.range_inclusive(5, 20) * 1_000,
            warmup_cycles: rng.range_inclusive(50, 150) * 1_000,
            measure_cycles: rng.range_inclusive(3, 6) * epoch_cycles,
            footprint_scale: [64u64, 128][rng.below(2) as usize],
            fast_capacity: rng.range_inclusive(1, 3) * MIB,
            trace_sample: rng.chance(0.4).then(|| [16u64, 64][rng.below(2) as usize]),
        }
    }

    /// The policy kind this case runs under.
    pub fn policy_kind(&self) -> Result<PolicyKind, String> {
        PolicyKind::by_name(&self.policy)
    }

    /// A short human-readable tag for logs.
    pub fn label(&self) -> String {
        format!(
            "seed={} {}{}{} {}",
            self.case_seed,
            self.cpu.join("+"),
            if !self.cpu.is_empty() && self.gpu.is_some() { "/" } else { "" },
            self.gpu.as_deref().unwrap_or(""),
            self.policy
        )
    }

    /// Resolve the case into everything `run_workloads` needs. Rejects
    /// unknown workload or policy names and empty workload mixes — the
    /// same validation `h2 fuzz --replay` relies on for untrusted input.
    pub fn build(&self) -> Result<BuiltCase, String> {
        if self.cpu.is_empty() && self.gpu.is_none() {
            return Err(
                "workload mix is empty: need at least one CPU workload or a GPU kernel".into(),
            );
        }
        let cpu: Vec<WorkloadSpec> = self
            .cpu
            .iter()
            .map(|n| {
                workloads::by_name(n).ok_or_else(|| format!("unknown CPU workload '{n}'"))
            })
            .collect::<Result<_, _>>()?;
        if let Some(w) = cpu.iter().find(|w| w.class != h2_trace::WorkloadClass::Cpu) {
            return Err(format!("'{}' is not a CPU workload", w.name));
        }
        let gpu = match &self.gpu {
            Some(n) => {
                let w =
                    workloads::by_name(n).ok_or_else(|| format!("unknown GPU kernel '{n}'"))?;
                if w.class != h2_trace::WorkloadClass::Gpu {
                    return Err(format!("'{n}' is not a GPU kernel"));
                }
                Some(w)
            }
            None => None,
        };
        let kind = self.policy_kind()?;

        let mut cfg = SystemConfig::tiny();
        cfg.seed = self.sim_seed;
        cfg.cpu_cores = self.cpu_cores;
        cfg.gpu_eus = self.gpu_eus;
        cfg.assoc = self.assoc;
        cfg.fast_channels = self.fast_channels;
        cfg.slow_channels = self.slow_channels;
        cfg.mode = if self.flat { Mode::Flat } else { Mode::Cache };
        cfg.epoch_cycles = self.epoch_cycles;
        cfg.faucet_cycles = self.faucet_cycles;
        cfg.warmup_cycles = self.warmup_cycles;
        cfg.measure_cycles = self.measure_cycles;
        cfg.footprint_scale = self.footprint_scale;
        cfg.fast_capacity_override = Some(self.fast_capacity);
        cfg.trace_sample = self.trace_sample;
        cfg.validate()?;
        Ok((cfg, cpu, gpu, kind, self.fast_capacity))
    }

    /// Serialise for `repro.json`.
    pub fn to_json(&self) -> Json {
        let mut cpu = Json::arr();
        for n in &self.cpu {
            cpu.push(n.as_str());
        }
        Json::obj()
            .field("case_seed", self.case_seed)
            .field("sim_seed", self.sim_seed)
            .field("cpu", cpu)
            .field("gpu", match &self.gpu {
                Some(n) => Json::Str(n.clone()),
                None => Json::Null,
            })
            .field("policy", self.policy.as_str())
            .field("flat", self.flat)
            .field("assoc", self.assoc)
            .field("fast_channels", self.fast_channels)
            .field("slow_channels", self.slow_channels)
            .field("cpu_cores", self.cpu_cores)
            .field("gpu_eus", self.gpu_eus)
            .field("epoch_cycles", self.epoch_cycles)
            .field("faucet_cycles", self.faucet_cycles)
            .field("warmup_cycles", self.warmup_cycles)
            .field("measure_cycles", self.measure_cycles)
            .field("footprint_scale", self.footprint_scale)
            .field("fast_capacity", self.fast_capacity)
            .field("trace_sample", match self.trace_sample {
                Some(n) => Json::U64(n),
                None => Json::Null,
            })
    }

    /// Deserialise from a `repro.json` case object.
    pub fn from_json(j: &Json) -> Result<FuzzCase, String> {
        fn u64_field(j: &Json, name: &str) -> Result<u64, String> {
            match j.get(name) {
                Some(Json::U64(v)) => Ok(*v),
                _ => Err(format!("case field '{name}' missing or not an unsigned integer")),
            }
        }
        fn opt_str(j: &Json, name: &str) -> Result<Option<String>, String> {
            match j.get(name) {
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(Json::Null) | None => Ok(None),
                _ => Err(format!("case field '{name}' must be a string or null")),
            }
        }
        let cpu = match j.get("cpu") {
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|x| match x {
                    Json::Str(s) => Ok(s.clone()),
                    _ => Err("cpu entries must be strings".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("case field 'cpu' missing or not an array".into()),
        };
        let policy = match j.get("policy") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("case field 'policy' missing or not a string".into()),
        };
        let flat = match j.get("flat") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("case field 'flat' missing or not a bool".into()),
        };
        let trace_sample = match j.get("trace_sample") {
            Some(Json::U64(v)) => Some(*v),
            Some(Json::Null) | None => None,
            _ => return Err("case field 'trace_sample' must be an integer or null".into()),
        };
        Ok(FuzzCase {
            case_seed: u64_field(j, "case_seed")?,
            sim_seed: u64_field(j, "sim_seed")?,
            cpu,
            gpu: opt_str(j, "gpu")?,
            policy,
            flat,
            assoc: u64_field(j, "assoc")? as usize,
            fast_channels: u64_field(j, "fast_channels")? as usize,
            slow_channels: u64_field(j, "slow_channels")? as usize,
            cpu_cores: u64_field(j, "cpu_cores")? as usize,
            gpu_eus: u64_field(j, "gpu_eus")? as usize,
            epoch_cycles: u64_field(j, "epoch_cycles")?,
            faucet_cycles: u64_field(j, "faucet_cycles")?,
            warmup_cycles: u64_field(j, "warmup_cycles")?,
            measure_cycles: u64_field(j, "measure_cycles")?,
            footprint_scale: u64_field(j, "footprint_scale")?,
            fast_capacity: u64_field(j, "fast_capacity")?,
            trace_sample,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_build_and_validate() {
        for s in 0..200 {
            let c = FuzzCase::generate(s);
            let (cfg, cpu, gpu, _, cap) = c.build().unwrap_or_else(|e| panic!("seed {s}: {e}"));
            assert!(!cpu.is_empty() || gpu.is_some());
            assert!(cap >= MIB);
            assert_eq!(cfg.seed, c.sim_seed);
            assert!(cfg.measure_cycles >= cfg.epoch_cycles);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzCase::generate(7), FuzzCase::generate(7));
        assert_ne!(FuzzCase::generate(7), FuzzCase::generate(8));
    }

    #[test]
    fn json_roundtrip() {
        for s in [0, 1, 42, 1234] {
            let c = FuzzCase::generate(s);
            let j = c.to_json();
            let back = FuzzCase::from_json(&Json::parse(&j.to_string_compact()).unwrap()).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn build_rejects_bad_cases() {
        let mut c = FuzzCase::generate(1);
        c.cpu.clear();
        c.gpu = None;
        assert!(c.build().unwrap_err().contains("workload mix is empty"));

        let mut c = FuzzCase::generate(1);
        c.policy = "Nonsense".into();
        assert!(c.build().unwrap_err().contains("unknown policy"));

        let mut c = FuzzCase::generate(1);
        c.cpu = vec!["not-a-workload".into()];
        assert!(c.build().unwrap_err().contains("unknown CPU workload"));

        let mut c = FuzzCase::generate(1);
        c.gpu = Some("gcc".into()); // a CPU workload in the GPU slot
        assert!(c.build().unwrap_err().contains("not a GPU kernel"));

        let mut c = FuzzCase::generate(1);
        c.epoch_cycles = 0;
        assert!(c.build().unwrap_err().contains("epoch_cycles"));
    }
}

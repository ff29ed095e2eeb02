//! Canonical, collision-resistant cache keys for simulation jobs.
//!
//! A job's key is the FNV-1a/128 hash of one canonical JSON document that
//! holds the key schema version, the mix, the policy label, the
//! participants, the scenario and [`SystemConfig::to_json`] — the same
//! config codec `.h2trace` headers embed, so a knob is named in exactly
//! one place and the key can never miss a field the codec carries. The
//! fixed-width `u128` is cheap to compare, to use as a `HashMap` key, and
//! to name on-disk cache entries with.
//!
//! Deliberate omissions, inherited from the codec:
//! [`SystemConfig::telemetry`], [`SystemConfig::trace_sample`] (both are
//! pure observations that never perturb timing — runs differing only in
//! them are the same run; a traced replay of an untraced cache entry is
//! handled by the cache's upgrade-on-miss rule, not by the key) and
//! [`SystemConfig::mask_memo`] (the memo is bit-identical to direct policy
//! calls). The literal keys pinned by the tests below must never move
//! without a [`KEY_SCHEMA_VERSION`] bump, or existing run stores go cold.

use h2_sim_core::Json;
use h2_system::{Participants, PolicyKind, SystemConfig};
use h2_trace::{Mix, TenantScenario};

/// Bump whenever the key document below changes shape, so persisted cache
/// entries keyed under the old scheme can never alias new ones.
pub const KEY_SCHEMA_VERSION: u32 = 2;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a over the byte stream, 128-bit variant.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// The canonical key of one (config, mix, policy, participants, scenario)
/// job. A scenario job keeps its mix as key material too (the harness uses
/// a fixed placeholder mix for scenarios, so the scenario JSON is the
/// distinguishing part): the scenario's canonical JSON covers every
/// arrival/priority/churn knob.
pub fn job_key(
    cfg: &SystemConfig,
    mix: &Mix,
    kind: PolicyKind,
    parts: Participants,
    scenario: Option<&TenantScenario>,
) -> u128 {
    let mut cpu = Json::arr();
    for name in mix.cpu {
        cpu.push(name);
    }
    let doc = Json::obj()
        .field("mix", Json::obj().field("name", mix.name).field("cpu", cpu).field("gpu", mix.gpu))
        // Labels are unique per policy variant, including the
        // parameterised ones (swap variants, static (bw, cap, tok) points).
        .field("policy", kind.label())
        .field("participants", format!("{parts:?}"))
        .field("scenario", scenario.map_or(Json::Null, TenantScenario::to_json))
        .field("config", cfg.to_json())
        // Last on purpose: FNV-1a carries a change in the final bytes into
        // the key's top byte (the store shard) only through the
        // multiplications that follow it, so every document ends with
        // this fixed trailer.
        .field("key_schema", KEY_SCHEMA_VERSION);
    fnv1a_128(doc.to_string_compact().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let a = fnv1a_128(b"hello");
        let b = fnv1a_128(b"hello");
        let c = fnv1a_128(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(fnv1a_128(b""), 0);
    }

    fn key(c: &SystemConfig) -> u128 {
        job_key(c, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart, Participants::Both, None)
    }

    /// Every knob `set_param` names reaches both the config codec and the
    /// key, and so do the knobs it does not name (hierarchy, weights,
    /// fast-memory preset).
    #[test]
    fn every_config_knob_changes_the_codec_and_the_key() {
        let base = SystemConfig::tiny();
        let (j0, k0) = (base.to_json(), key(&base));
        let mut changed: Vec<SystemConfig> = h2_system::config::PARAM_NAMES
            .iter()
            .map(|name| {
                // One past the encoded value; `flat` and an unset capacity
                // override have no integer encoding and go to 1.
                let v = j0.get(name).and_then(Json::as_u64).map_or(1, |v| v + 1);
                let mut c = base.clone();
                c.set_param(name, v).unwrap_or_else(|e| panic!("{name}: {e}"));
                c
            })
            .collect();
        let mut c = base.clone();
        c.hierarchy.llc.size_bytes *= 2;
        changed.push(c);
        let mut c = base.clone();
        c.weights.1 += 1.0;
        changed.push(c);
        let mut c = base.clone();
        c.fast_preset = h2_mem::TimingPreset::Hbm3Super;
        changed.push(c);
        for (i, c) in changed.iter().enumerate() {
            assert_ne!(c.to_json(), j0, "change {i} missing from to_json");
            assert_ne!(key(c), k0, "change {i} missing from the key");
        }
    }

    /// Jobs that differ only in the config's last field (`seed`, the
    /// usual sweep axis) still spread over the store's top-byte shards.
    #[test]
    fn seed_sweeps_spread_over_store_shards() {
        let mut c = SystemConfig::tiny();
        let shards: std::collections::HashSet<u8> = (0..32)
            .map(|s| {
                c.seed = s;
                (key(&c) >> 120) as u8
            })
            .collect();
        assert!(shards.len() >= 16, "32 seeds landed in {} shards", shards.len());
    }

    /// Observation-only knobs never move the key: runs differing only in
    /// them are the same run.
    #[test]
    fn observation_only_knobs_keep_the_key() {
        let base = SystemConfig::tiny();
        let k0 = key(&base);
        let mut c = base.clone();
        c.telemetry = !c.telemetry;
        assert_eq!(key(&c), k0, "telemetry");
        let mut c = base.clone();
        c.trace_sample = Some(64);
        assert_eq!(key(&c), k0, "trace_sample");
        let mut c = base.clone();
        c.mask_memo = !c.mask_memo;
        assert_eq!(key(&c), k0, "mask_memo");
    }

    fn one_tenant_scenario() -> TenantScenario {
        TenantScenario {
            name: "s".into(),
            seed: 1,
            tenants: vec![h2_trace::TenantSpec {
                name: "a".into(),
                priority: 0,
                cores: 1,
                ctxs: 0,
                cpu: vec!["gcc".into()],
                gpu: vec![],
                arrival: h2_trace::Arrival::Steady,
                start: 0,
                stop: None,
                phase_cycles: None,
            }],
        }
    }

    /// Literal keys of two fixed jobs. Existing run stores stay warm only
    /// while these hold; changing one needs a [`KEY_SCHEMA_VERSION`] bump.
    #[test]
    fn pinned_keys_keep_existing_run_stores_warm() {
        let quick = crate::cache::Job::new(
            &crate::profile::Profile::Quick.config(),
            &Mix::by_name("C1").unwrap(),
            PolicyKind::HydrogenFull,
        );
        assert_eq!(quick.key(), 0x61feb2d3013b616699fed224162fe7a1);
        let scenario = crate::cache::Job::scenario(
            &SystemConfig::tiny(),
            &one_tenant_scenario(),
            PolicyKind::NoPart,
        );
        assert_eq!(scenario.key(), 0xb3cb08f6f124eb5a11e5dc9084aa2565);
    }

    #[test]
    fn scenario_changes_the_key() {
        let mix = Mix::by_name("C1").unwrap();
        let c = SystemConfig::tiny();
        let sc = one_tenant_scenario();
        let k0 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, None);
        let k1 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, Some(&sc));
        assert_ne!(k0, k1);
        let mut sc2 = sc.clone();
        sc2.seed = 2;
        let k2 = job_key(&c, &mix, PolicyKind::NoPart, Participants::Both, Some(&sc2));
        assert_ne!(k1, k2);
    }

    #[test]
    fn static_policy_points_get_distinct_keys() {
        let mix = Mix::by_name("C1").unwrap();
        let c = SystemConfig::tiny();
        let a = job_key(&c, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 2, tok: 3 }, Participants::Both, None);
        let b = job_key(&c, &mix, PolicyKind::HydrogenStatic { bw: 1, cap: 3, tok: 2 }, Participants::Both, None);
        assert_ne!(a, b);
    }
}

//! Policy selection: every design evaluated in the paper, as a value.
//!
//! [`PolicyKind::build`] constructs the policy object *and* adapts the
//! hybrid geometry the way the paper does per design (HAShCache is
//! direct-mapped with chaining at A=1, chaining off plus extra tag latency
//! at higher associativities; the `Ideal` swap variant makes swap traffic
//! free; `HydrogenStatic` pins a `(bw, cap, tok)` point for the Fig 8
//! exhaustive search).

use crate::config::SystemConfig;
use h2_baselines::{HashCachePolicy, NoMigratePolicy, NoPartPolicy, ProfessPolicy, WayPartPolicy};
use h2_hybrid::policy::PartitionPolicy;
use h2_hybrid::types::HybridConfig;
use h2_hydrogen::{HydrogenConfig, HydrogenPolicy, SwapMode};

/// Every memory-management design in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Non-partitioned shared baseline.
    NoPart,
    /// Shared placement with every migration denied. Not a paper design:
    /// the checking layer's "zero admitted migrations ⇒ zero migration
    /// traffic" metamorphic relation runs under this policy.
    NoMigrate,
    /// Static 75 % way partitioning (coupled).
    WayPart,
    /// HAShCache (direct-mapped + chaining, CPU priority, bypass).
    HashCache,
    /// ProFess (probabilistic fairness-driven migration).
    Profess,
    /// Hydrogen ablation: decoupled partitioning only (fixed bw=1, cap=3).
    HydrogenDp,
    /// Hydrogen ablation: DP + token migration at the fixed 15 % level.
    HydrogenDpToken,
    /// Full Hydrogen: DP + tokens + hill climbing.
    HydrogenFull,
    /// Full Hydrogen with a swap variant (Fig 7a).
    HydrogenSwap(SwapVariant),
    /// Full Hydrogen with ideal (teleporting, free) reconfiguration
    /// (Fig 7b).
    HydrogenIdealReconfig,
    /// Kim et al. DAC'12: GPU data stays in slow memory except
    /// write-intensive blocks (related-work baseline).
    Kim2012,
    /// The §IV-F decoupled set-partitioning variant of Hydrogen (static).
    SetPart,
    /// Full Hydrogen with per-channel token counters instead of the single
    /// global counter (the §IV-B ablation).
    HydrogenPerChannelTokens,
    /// Hydrogen pinned at a static `(bw, cap, tok)` point, search disabled
    /// (Fig 8 exhaustive landscape).
    HydrogenStatic {
        /// Dedicated CPU channels.
        bw: usize,
        /// CPU ways per set.
        cap: usize,
        /// Token level index.
        tok: usize,
    },
}

/// Fast-memory swap variants of Fig 7a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVariant {
    /// Zero-cost swaps (upper bound).
    Ideal,
    /// The shipped hotness-guided swap.
    Ours,
    /// Randomly skip half the swaps.
    Prob50,
    /// Never swap.
    NoSwap,
}

impl PolicyKind {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::NoPart => "Baseline".into(),
            PolicyKind::NoMigrate => "NoMigrate".into(),
            PolicyKind::WayPart => "WayPart".into(),
            PolicyKind::HashCache => "HAShCache".into(),
            PolicyKind::Profess => "ProFess".into(),
            PolicyKind::HydrogenDp => "Hydrogen(DP)".into(),
            PolicyKind::HydrogenDpToken => "Hydrogen(DP+Token)".into(),
            PolicyKind::HydrogenFull => "Hydrogen(Full)".into(),
            PolicyKind::HydrogenSwap(v) => format!("Hydrogen(swap={v:?})"),
            PolicyKind::HydrogenIdealReconfig => "Hydrogen(IdealReconfig)".into(),
            PolicyKind::Kim2012 => "Kim2012".into(),
            PolicyKind::SetPart => "SetPart".into(),
            PolicyKind::HydrogenPerChannelTokens => "Hydrogen(PerChTok)".into(),
            PolicyKind::HydrogenStatic { bw, cap, tok } => {
                format!("Hydrogen(bw={bw},cap={cap},tok={tok})")
            }
        }
    }

    /// The stable names of the unparameterised designs, the names sweep
    /// specs, `h2 run --policy` and `.h2trace` headers use. The order is
    /// part of the contract: the fuzzer samples by index. Parameterised
    /// kinds (`HydrogenStatic`, swap variants, `HydrogenIdealReconfig`)
    /// have no stable name.
    pub const CATALOG: [(&'static str, PolicyKind); 11] = [
        ("NoPart", PolicyKind::NoPart),
        ("NoMigrate", PolicyKind::NoMigrate),
        ("WayPart", PolicyKind::WayPart),
        ("HashCache", PolicyKind::HashCache),
        ("Profess", PolicyKind::Profess),
        ("Kim2012", PolicyKind::Kim2012),
        ("SetPart", PolicyKind::SetPart),
        ("HydrogenDp", PolicyKind::HydrogenDp),
        ("HydrogenDpToken", PolicyKind::HydrogenDpToken),
        ("HydrogenFull", PolicyKind::HydrogenFull),
        ("HydrogenPerChannelTokens", PolicyKind::HydrogenPerChannelTokens),
    ];

    /// Look up a design by its stable [`PolicyKind::CATALOG`] name.
    pub fn by_name(name: &str) -> Result<PolicyKind, String> {
        Self::CATALOG.iter().find(|(n, _)| *n == name).map(|(_, k)| *k).ok_or_else(|| {
            let known: Vec<&str> = Self::CATALOG.iter().map(|(n, _)| *n).collect();
            format!("unknown policy '{name}' (known: {})", known.join(", "))
        })
    }

    /// The designs of Fig 5, in plot order.
    pub fn fig5_designs() -> Vec<PolicyKind> {
        vec![
            PolicyKind::HashCache,
            PolicyKind::Profess,
            PolicyKind::WayPart,
            PolicyKind::HydrogenDp,
            PolicyKind::HydrogenDpToken,
            PolicyKind::HydrogenFull,
        ]
    }

    /// Build the policy and adapt the hybrid geometry for this design.
    pub fn build(
        &self,
        sys: &SystemConfig,
        hybrid: &mut HybridConfig,
    ) -> Box<dyn PartitionPolicy> {
        let assoc = hybrid.assoc;
        let channels = hybrid.fast_channels;
        let budget = sys.token_budget_per_period();
        let hydro = |mut hc: HydrogenConfig| -> HydrogenConfig {
            hc.epochs_per_phase = sys.epochs_per_phase;
            hc
        };
        match self {
            PolicyKind::NoPart => Box::new(NoPartPolicy::new(assoc, channels)),
            PolicyKind::NoMigrate => Box::new(NoMigratePolicy::new(assoc, channels)),
            PolicyKind::WayPart => Box::new(WayPartPolicy::default_75(assoc, channels)),
            PolicyKind::HashCache => {
                if assoc == 1 {
                    hybrid.chaining = true;
                } else {
                    // Fig 11: scale HAShCache up by disabling chaining and
                    // paying the corresponding tag-access latency.
                    hybrid.chaining = false;
                    hybrid.extra_tag_latency = 4;
                }
                Box::new(HashCachePolicy::new(assoc, channels))
            }
            PolicyKind::Profess => Box::new(ProfessPolicy::new(assoc, channels)),
            PolicyKind::HydrogenDp => {
                Box::new(HydrogenPolicy::new(hydro(HydrogenConfig::dp_only(assoc, channels))))
            }
            PolicyKind::HydrogenDpToken => Box::new(HydrogenPolicy::new(hydro(
                HydrogenConfig::dp_token(assoc, channels, budget),
            ))),
            PolicyKind::HydrogenFull => Box::new(HydrogenPolicy::new(hydro(
                HydrogenConfig::full(assoc, channels, budget),
            ))),
            PolicyKind::HydrogenSwap(v) => {
                let mut hc = HydrogenConfig::full(assoc, channels, budget);
                hc.swap = match v {
                    SwapVariant::Ideal | SwapVariant::Ours => SwapMode::Ours,
                    SwapVariant::Prob50 => SwapMode::Prob50,
                    SwapVariant::NoSwap => SwapMode::NoSwap,
                };
                if *v == SwapVariant::Ideal {
                    hybrid.free_swaps = true;
                }
                Box::new(HydrogenPolicy::new(hydro(hc)))
            }
            PolicyKind::HydrogenIdealReconfig => {
                let mut hc = HydrogenConfig::full(assoc, channels, budget);
                hc.ideal_reconfig = true;
                Box::new(HydrogenPolicy::new(hydro(hc)))
            }
            PolicyKind::Kim2012 => Box::new(h2_baselines::KimPolicy::new(assoc, channels)),
            PolicyKind::SetPart => Box::new(h2_hydrogen::SetPartPolicy::default_hydrogen_like(
                assoc, channels,
            )),
            PolicyKind::HydrogenPerChannelTokens => {
                let mut hc = HydrogenConfig::full(assoc, channels, budget);
                hc.per_channel_tokens = Some(sys.slow_channels);
                Box::new(HydrogenPolicy::new(hydro(hc)))
            }
            PolicyKind::HydrogenStatic { bw, cap, tok } => {
                let mut hc = HydrogenConfig::full(assoc, channels, budget);
                hc.enable_climb = false;
                hc.init_bw = *bw;
                hc.init_cap = *cap;
                hc.init_tok = *tok;
                Box::new(HydrogenPolicy::new(hydro(hc)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_hybrid::types::ReqClass;

    fn sys() -> SystemConfig {
        SystemConfig::tiny()
    }

    #[test]
    fn every_kind_builds() {
        let kinds = vec![
            PolicyKind::NoPart,
            PolicyKind::NoMigrate,
            PolicyKind::WayPart,
            PolicyKind::HashCache,
            PolicyKind::Profess,
            PolicyKind::HydrogenDp,
            PolicyKind::HydrogenDpToken,
            PolicyKind::HydrogenFull,
            PolicyKind::HydrogenSwap(SwapVariant::Ideal),
            PolicyKind::HydrogenSwap(SwapVariant::NoSwap),
            PolicyKind::HydrogenIdealReconfig,
            PolicyKind::HydrogenStatic { bw: 2, cap: 3, tok: 4 },
        ];
        for k in kinds {
            let mut h = HybridConfig::default();
            let p = k.build(&sys(), &mut h);
            // Masks partition or share the ways, but never overflow assoc.
            let all = ((1u32 << h.assoc) - 1) as u16;
            assert_eq!(p.alloc_mask(3, ReqClass::Cpu) & !all, 0, "{}", k.label());
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn hashcache_direct_mapped_gets_chaining() {
        let mut h = HybridConfig { assoc: 1, ..HybridConfig::default() };
        PolicyKind::HashCache.build(&sys(), &mut h);
        assert!(h.chaining);
        let mut h4 = HybridConfig::default();
        PolicyKind::HashCache.build(&sys(), &mut h4);
        assert!(!h4.chaining);
        assert!(h4.extra_tag_latency > 0);
    }

    #[test]
    fn ideal_swap_frees_traffic() {
        let mut h = HybridConfig::default();
        PolicyKind::HydrogenSwap(SwapVariant::Ideal).build(&sys(), &mut h);
        assert!(h.free_swaps);
        let mut h2 = HybridConfig::default();
        PolicyKind::HydrogenSwap(SwapVariant::Ours).build(&sys(), &mut h2);
        assert!(!h2.free_swaps);
    }

    #[test]
    fn static_config_is_pinned() {
        let mut h = HybridConfig::default();
        let p = PolicyKind::HydrogenStatic { bw: 2, cap: 2, tok: 1 }.build(&sys(), &mut h);
        let params = p.params();
        assert_eq!(params.bw, 2);
        assert_eq!(params.cap, 2);
        assert_eq!(params.tok, 1);
    }

    #[test]
    fn every_catalog_name_resolves_to_its_kind() {
        for (name, kind) in PolicyKind::CATALOG {
            assert_eq!(PolicyKind::by_name(name), Ok(kind));
        }
        let err = PolicyKind::by_name("nope").unwrap_err();
        assert!(err.contains("unknown policy") && err.contains("HydrogenFull"), "{err}");
    }

    #[test]
    fn fig5_design_list_matches_paper() {
        let d = PolicyKind::fig5_designs();
        assert_eq!(d.len(), 6);
        assert_eq!(d[0], PolicyKind::HashCache);
        assert_eq!(d[5], PolicyKind::HydrogenFull);
    }
}

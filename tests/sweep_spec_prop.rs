//! Sweep-spec property tests (tier 2).
//!
//! Randomised (but seeded) checks of the sweep-spec contract: every
//! search kind expands deterministically from its spec, expansion never
//! produces duplicate u128 job keys, and specs round-trip exactly through
//! the canonical JSON codec. The generator draws specs from the real
//! parameter/mix/policy vocabulary so the properties cover what users can
//! actually write.

use h2_harness::sweep::spec::{Axis, Goal, Search, SweepPoint, SweepSpec};
use h2_sim_core::SeededRng;
use std::collections::HashSet;

/// Parameters safe to vary at tiny scale without tripping config
/// validation (e.g. assoc must divide the way count, channels the
/// capacity), paired with valid value pools.
const AXIS_POOL: &[(&str, &[u64])] = &[
    ("seed", &[0, 1, 2, 3, 5, 8, 13]),
    ("assoc", &[1, 2, 4, 8]),
    ("epoch_cycles", &[20_000, 40_000, 80_000]),
    ("measure_cycles", &[100_000, 200_000, 400_000]),
    ("remap_cache_bytes", &[1024, 2048, 4096]),
    ("footprint_scale", &[1, 2, 4]),
];

const MIX_POOL: &[&str] = &["C1", "C2", "C3", "C7"];
const POLICY_POOL: &[&str] = &["NoPart", "WayPart", "SetPart", "HydrogenFull"];

/// Draw a random-but-valid spec from `rng`.
fn gen_spec(rng: &mut SeededRng, tag: u64) -> SweepSpec {
    let n_axes = 1 + rng.below(3) as usize;
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < n_axes {
        let i = rng.below(AXIS_POOL.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let params: Vec<Axis> = picked
        .iter()
        .map(|&i| {
            let (name, pool) = AXIS_POOL[i];
            // A contiguous, non-empty slice of the value pool.
            let lo = rng.below(pool.len() as u64) as usize;
            let hi = lo + 1 + rng.below((pool.len() - lo) as u64) as usize;
            Axis { name: name.into(), values: pool[lo..hi].to_vec() }
        })
        .collect();
    let mixes = vec![MIX_POOL[rng.below(MIX_POOL.len() as u64) as usize].to_string()];
    let n_pol = 1 + rng.below(2) as usize;
    let mut policies: Vec<String> = Vec::new();
    while policies.len() < n_pol {
        let p = POLICY_POOL[rng.below(POLICY_POOL.len() as u64) as usize].to_string();
        if !policies.contains(&p) {
            policies.push(p);
        }
    }
    let search = match rng.below(3) {
        0 => Search::Grid { params },
        1 => Search::Random { samples: 1 + rng.below(20), seed: rng.below(1 << 30), params },
        _ => Search::HillClimb {
            metric: "weighted_ipc".into(),
            goal: if rng.below(2) == 0 { Goal::Max } else { Goal::Min },
            seed: rng.below(1 << 30),
            max_steps: 1 + rng.below(6),
            params,
        },
    };
    SweepSpec {
        name: format!("prop-{tag}"),
        scale: "tiny".into(),
        mixes,
        policies,
        base: vec![("warmup_cycles".into(), 50_000)],
        scenario: None,
        search,
    }
}

/// A deterministic synthetic evaluator (no simulations): scores a point
/// by hashing its parameter values, so hill-climbs have a real landscape
/// to walk without costing sim time.
fn synth_eval(ps: &[SweepPoint]) -> Result<Vec<f64>, String> {
    Ok(ps
        .iter()
        .map(|p| {
            let mut h = 0xcbf29ce484222325u64;
            for (name, v) in &p.params {
                for b in name.bytes().chain(v.to_le_bytes()) {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
            }
            (h % 1000) as f64
        })
        .collect())
}

#[test]
fn expansion_is_deterministic_for_every_search_kind() {
    let mut rng = SeededRng::derive(42, "sweep-prop/determinism");
    for tag in 0..60 {
        let spec = gen_spec(&mut rng, tag);
        spec.validate().unwrap_or_else(|e| panic!("generated spec invalid: {e}\n{spec:?}"));
        let a = spec.expand(&mut synth_eval).unwrap();
        let b = spec.expand(&mut synth_eval).unwrap();
        assert_eq!(a, b, "expansion must be a pure function of the spec\n{spec:?}");
        assert!(!a.is_empty());
        // Within one expansion no point repeats.
        for (i, p) in a.iter().enumerate() {
            assert!(!a[..i].contains(p), "duplicate point {p:?}\n{spec:?}");
        }
    }
}

#[test]
fn expanded_jobs_never_collide_on_u128_keys() {
    let mut rng = SeededRng::derive(7, "sweep-prop/keys");
    for tag in 0..40 {
        let spec = gen_spec(&mut rng, tag);
        let points = spec.expand(&mut synth_eval).unwrap();
        let mut keys: HashSet<u128> = HashSet::new();
        let mut total = 0usize;
        for point in &points {
            for job in spec.jobs_for_point(point).unwrap() {
                keys.insert(job.key());
                total += 1;
            }
        }
        assert_eq!(
            keys.len(),
            total,
            "distinct (point, mix, policy) tuples must get distinct keys\n{spec:?}"
        );
    }
}

#[test]
fn specs_roundtrip_through_canonical_json() {
    let mut rng = SeededRng::derive(99, "sweep-prop/roundtrip");
    for tag in 0..60 {
        let spec = gen_spec(&mut rng, tag);
        let text = spec.to_json().to_string_pretty();
        let back = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back, spec, "parse(to_json(spec)) != spec\n{text}");
        // And the codec is a fixpoint: serialising again is byte-identical.
        assert_eq!(back.to_json().to_string_pretty(), text);
    }
}

#[test]
fn random_search_draws_only_axis_values_and_respects_samples() {
    let mut rng = SeededRng::derive(3, "sweep-prop/random");
    for tag in 0..30 {
        let mut spec = gen_spec(&mut rng, tag);
        let samples = 1 + rng.below(25);
        spec.search = Search::Random {
            samples,
            seed: rng.below(1 << 20),
            params: spec.search.params().to_vec(),
        };
        let points = spec.expand(&mut synth_eval).unwrap();
        assert!(points.len() as u64 <= samples, "dedup can only shrink the draw");
        for p in &points {
            for ((name, v), axis) in p.params.iter().zip(spec.search.params()) {
                assert_eq!(name, &axis.name);
                assert!(axis.values.contains(v), "{name}={v} not in axis {axis:?}");
            }
        }
    }
}

#[test]
fn hillclimb_moves_are_single_axis_steps_from_visited_points() {
    // Structural property of the climb: after the start point, every
    // visited point is exactly one axis index away from some previously
    // visited point (neighbour batches expand around the current best).
    let mut rng = SeededRng::derive(17, "sweep-prop/climb");
    for tag in 0..30 {
        let mut spec = gen_spec(&mut rng, tag);
        spec.search = Search::HillClimb {
            metric: "weighted_ipc".into(),
            goal: Goal::Max,
            seed: rng.below(1 << 20),
            max_steps: 1 + rng.below(8),
            params: spec.search.params().to_vec(),
        };
        let axes = spec.search.params().to_vec();
        let index_of = |p: &SweepPoint| -> Vec<usize> {
            p.params
                .iter()
                .zip(&axes)
                .map(|((_, v), ax)| ax.values.iter().position(|x| x == v).unwrap())
                .collect()
        };
        let points = spec.expand(&mut synth_eval).unwrap();
        let indices: Vec<Vec<usize>> = points.iter().map(&index_of).collect();
        for (i, idx) in indices.iter().enumerate().skip(1) {
            let is_step = |from: &Vec<usize>| {
                let diffs: Vec<usize> = (0..idx.len())
                    .filter(|&d| from[d] != idx[d])
                    .collect();
                diffs.len() == 1 && from[diffs[0]].abs_diff(idx[diffs[0]]) == 1
            };
            assert!(
                indices[..i].iter().any(is_step),
                "point {idx:?} is not a unit step from any visited point\n{spec:?}"
            );
        }
    }
}

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Tables I-II, Figures 2 and 5-11).
//!
//! Each experiment in [`experiments`] produces one or more [`table::Table`]s
//! — the same rows/series the paper plots — prints them, and writes CSVs to
//! `results/`. Runs are cached per process ([`cache::RunCache`]) so
//! experiments sharing the same simulations (e.g. Fig 5 and Fig 6) pay once.
//!
//! Scale profiles ([`profile::Profile`]) select how much work to do:
//! `quick` (sanity, a few mixes), `default` (all headline mixes, scaled
//! windows), `full` (longer windows). Select with `H2_PROFILE=quick|full`.

pub mod alloc_count;
pub mod cache;
pub mod experiments;
pub mod fuzz_cli;
pub mod hotbench;
pub mod key;
pub mod persist;
pub mod profile;
pub mod profout;
pub mod sweep;
pub mod table;
pub mod trace_cli;

pub use cache::RunCache;
pub use profile::Profile;
pub use table::Table;

/// Run one experiment by id ("table1", "fig5", ...), returning its tables.
pub fn run_experiment(id: &str, profile: &Profile, cache: &mut RunCache) -> Option<Vec<Table>> {
    let t = match id {
        "table1" => experiments::table1::run(profile),
        "table2" => experiments::table2::run(profile),
        "fig2" => experiments::fig2::run(profile, cache),
        "fig5" => experiments::fig5::run(profile, cache),
        "fig6" => experiments::fig6::run(profile, cache),
        "fig7" => experiments::fig7::run(profile, cache),
        "fig8" => experiments::fig8::run(profile, cache),
        "fig9" => experiments::fig9::run(profile, cache),
        "fig10" => experiments::fig10::run(profile, cache),
        "fig11" => experiments::fig11::run(profile, cache),
        "extensions" => experiments::extensions::run(profile, cache),
        "verify" => experiments::verify::run(profile, cache),
        _ => return None,
    };
    Some(t)
}

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "extensions", "verify",
];

/// Remove `flag <value>` from anywhere in `args` and return the value
/// (`None` when the flag is absent). Errors when the flag is the last
/// token, i.e. its value is missing.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs an argument"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Check every requested experiment id up front, so a typo in the last id
/// fails fast instead of surfacing after the earlier experiments ran.
pub fn validate_run_ids(ids: &[&str]) -> Result<(), String> {
    if ids.is_empty() {
        return Err("h2 run needs at least one experiment (see `h2 list`)".into());
    }
    match ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        Some(bad) => Err(format!("unknown experiment '{bad}' (see `h2 list`)")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flag_removes_the_flag_and_its_value() {
        let mut args: Vec<String> = ["sweep", "--out", "p.jsonl", "s.json"].map(String::from).into();
        assert_eq!(take_flag(&mut args, "--out").unwrap().as_deref(), Some("p.jsonl"));
        assert_eq!(args, ["sweep", "s.json"]);
        assert_eq!(take_flag(&mut args, "--jobs").unwrap(), None);
        args.push("--jobs".into());
        assert_eq!(take_flag(&mut args, "--jobs").unwrap_err(), "--jobs needs an argument");
    }

    #[test]
    fn run_ids_are_validated_up_front() {
        validate_run_ids(&["fig5", "fig6"]).unwrap();
        assert_eq!(
            validate_run_ids(&[]).unwrap_err(),
            "h2 run needs at least one experiment (see `h2 list`)"
        );
        assert_eq!(
            validate_run_ids(&["fig5", "fig99"]).unwrap_err(),
            "unknown experiment 'fig99' (see `h2 list`)"
        );
    }
}
